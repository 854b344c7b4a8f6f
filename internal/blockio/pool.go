package blockio

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// flateLevel is the deflate level every frame is compressed at. It matches
// gzip.NewWriter's default, so the blocked container trades like-for-like
// against Cypress+Gzip, and it is part of the determinism contract: frames
// are byte-identical across worker counts only because every worker
// compresses at the same fixed level.
const flateLevel = flate.DefaultCompression

// flateWriters holds raw-deflate writers between frames. A writer's
// construction allocates about 1.4 MB of deflate state and its Reset makes
// it fully reusable, so every frame of every container shares a handful.
var flateWriters = sync.Pool{
	New: func() any {
		fw, err := flate.NewWriter(io.Discard, flateLevel)
		if err != nil {
			// Unreachable: flateLevel is a valid constant.
			panic(err)
		}
		return fw
	},
}

// getFlate returns a pooled raw-deflate writer reset to stream into w.
func getFlate(w io.Writer) *flate.Writer {
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(w)
	return fw
}

// inflater is one raw-deflate reader with the source it reads frames from
// and the byte it probes past a frame's end with. One serves every frame of a
// read in turn.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
	one [1]byte
}

// inflaters holds inflaters between reads. The stdlib guarantees the reader
// implements flate.Resetter, which is what makes reuse possible.
var inflaters = sync.Pool{
	New: func() any {
		in := new(inflater)
		in.fr = flate.NewReader(&in.src)
		return in
	},
}

// getInflater returns a pooled inflater; putInflater drops its source so the
// pool does not pin the container bytes.
func getInflater() *inflater { return inflaters.Get().(*inflater) }

func putInflater(in *inflater) {
	in.src.Reset(nil)
	inflaters.Put(in)
}
