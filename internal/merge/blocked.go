package merge

import (
	"io"
	"runtime"

	"repro/internal/blockio"
	"repro/internal/obs"
)

// defaultIOWorkers picks the worker count for block-parallel encode when the
// caller passes 0: the scheduler's parallelism, capped so a wide machine does
// not spin up more compressors than a trace has frames to feed.
func defaultIOWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// EncodeBlocked writes the merged tree inside a CYPB block container: the
// CYPR payload is cut into fixed-target-size frames, each compressed
// independently on a pool of workers, with a seekable frame index appended in
// the footer (see package blockio). workers <= 0 picks a default from
// GOMAXPROCS; the emitted bytes are identical at every worker count for a
// given frame size. Returns the compressed (container) byte count.
func (m *Merged) EncodeBlocked(out io.Writer, workers int) (int64, error) {
	return m.EncodeBlockedFrames(out, workers, 0)
}

// EncodeBlockedFrames is EncodeBlocked with an explicit uncompressed frame
// target; frameSize <= 0 means blockio.DefaultFrameSize. Smaller frames give
// the decode pipeline and random access finer granularity at a small size
// cost (deflate restarts its window per frame).
func (m *Merged) EncodeBlockedFrames(out io.Writer, workers, frameSize int) (int64, error) {
	// Refused before the container writes its header or starts its workers.
	if err := m.whole("encode"); err != nil {
		return 0, err
	}
	if workers <= 0 {
		workers = defaultIOWorkers()
	}
	cw := &countingWriter{w: out}
	bw, err := blockio.NewWriter(cw, blockio.WriterOptions{FrameSize: frameSize, Workers: workers})
	if err != nil {
		return 0, err
	}
	if _, err := m.Encode(bw); err != nil {
		return 0, err
	}
	if err := bw.Close(); err != nil {
		return 0, err
	}
	if sink := obs.Attached(); sink.Enabled() {
		sink.Inc(obs.EncBlockedTraces)
		sink.Add(obs.EncBytesBlocked, cw.n)
	}
	return cw.n, nil
}
