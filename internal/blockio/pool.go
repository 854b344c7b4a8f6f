package blockio

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// flateLevel is the deflate level every frame is compressed at. It is part of
// the determinism contract: frames are byte-identical across worker counts
// only because every worker compresses at the same fixed level. Readers do not
// depend on it, so containers written at any level open.
//
// It is the knee of the measured level curve, not gzip's default (6, which
// Cypress+Gzip and the gzip baselines keep). Bytes and median deflate ms of
// each paper-scale stream in DefaultFrameSize frames (15 interleaved runs,
// 2-vCPU box; BenchmarkDeflateLevel re-runs it on smaller inputs). The first
// four are v1 trace encodings, the last the stream of SP-1024's corpus class
// file (structure plus representative payload):
//
//	level  LU-128    SP-1024         MG-512        CG-1024       SP-1024 class
//	  1    879 0.10   527 435  17.6   22 694 0.80   78 996  2.5   510 028  16.0
//	  2    844 0.14   513 394  24.0   21 739 0.99   76 244  3.6   496 464  24.1
//	  3    837 0.13   511 357  25.9   21 608 1.01   76 447  4.4   494 902  24.0
//	  4    837 0.14   510 797  27.6   21 486 1.11   76 260  4.4   493 181  25.1
//	  5    823 0.14   509 733  38.3   21 285 1.30   77 358  6.9   484 599  32.1
//	  6    823 0.14   508 146  63.1   21 175 1.38   78 658 13.6   483 856  58.3
//	  7    823 0.13   505 510  83.9   21 175 1.45   78 552 22.0   481 061  77.6
//	  8    823 0.13   505 444 112.0   21 174 1.43   78 533 27.4   480 981 164.4
//	  9    823 0.13   505 444 112.9   21 174 1.44   78 533 27.6   480 844 197.9
//
// The rule: the lowest level whose bytes stay within 2 % of level 6's on
// every stream. Level 3 breaks it (MG-512 +2.0 %, SP's class file +2.3 %);
// level 4 is at most +1.9 % and deflates SP-1024's two write-stage streams in
// 53 ms against 121 ms. Inflate time does not depend on the level (10.0–11.8
// ms on SP-1024 at every level).
const flateLevel = 4

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
