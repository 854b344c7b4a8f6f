package blockio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
)

// WriterOptions configures a container writer.
type WriterOptions struct {
	// FrameSize is the most uncompressed bytes a frame holds; 0 means
	// DefaultFrameSize. The emitted bytes depend on this value and on where
	// the caller Cuts (together they decide the frame boundaries) but never
	// on Workers.
	FrameSize int
	// Workers bounds the concurrent frame compressors. Values <= 1 compress
	// inline on the caller's goroutine with no pool at all — the bytes are
	// identical either way, so single-worker callers pay zero concurrency
	// overhead.
	Workers int
}

func (o WriterOptions) normalized() WriterOptions {
	if o.FrameSize <= 0 {
		o.FrameSize = DefaultFrameSize
	}
	if o.FrameSize > maxFrameSize {
		o.FrameSize = maxFrameSize
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// encJob is one frame moving through the compression pool. The struct (and
// its source/destination buffers) is recycled writer-locally, so steady-state
// frame encode does not allocate per frame.
type encJob struct {
	src  []byte       // filled uncompressed frame
	dst  bytes.Buffer // compressed output
	crc  uint32       // CRC-32 of src
	err  error
	done chan struct{} // 1-buffered completion signal, reused across jobs
}

// Writer writes a CYPB container around a payload stream. Close finishes the
// last frame and appends the footer index; abandoning a parallel writer
// without Close leaks its worker goroutines.
type Writer struct {
	dst  io.Writer
	opt  WriterOptions
	buf  []byte // current frame accumulator (cap == FrameSize)
	off  int64  // container bytes emitted
	idx  []frameMeta
	err  error
	done bool

	// Parallel state (Workers > 1): jobs flow to the pool through jobs and
	// are drained strictly in submission order through pending, so frames
	// land on dst in payload order no matter which worker finishes first.
	jobs    chan *encJob
	pending []*encJob
	freeJob []*encJob
	freeBuf [][]byte
	wg      sync.WaitGroup
	inline  encJob // Workers <= 1 reuses one job inline

	var64   [binary.MaxVarintLen64]byte
	nFrames int64
	frameLH obs.LocalHist // compressed frame sizes, flushed once at Close
}

// NewWriter writes the container header to w and returns the framing writer.
func NewWriter(w io.Writer, opt WriterOptions) (*Writer, error) {
	opt = opt.normalized()
	bw := &Writer{dst: w, opt: opt}
	bw.buf = bw.getBuf()
	if _, err := w.Write(Magic[:]); err != nil {
		return nil, fmt.Errorf("blockio: writing header: %w", err)
	}
	bw.off = int64(len(Magic))
	bw.u(version)
	bw.u(uint64(opt.FrameSize))
	if bw.err != nil {
		return nil, bw.err
	}
	if opt.Workers > 1 {
		bw.jobs = make(chan *encJob, opt.Workers)
		bw.wg.Add(opt.Workers)
		for i := 0; i < opt.Workers; i++ {
			go bw.worker(int32(i))
		}
	}
	return bw, nil
}

// u emits one uvarint with sticky error handling and offset accounting.
func (w *Writer) u(x uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.var64[:], x)
	_, w.err = w.dst.Write(w.var64[:n])
	w.off += int64(n)
}

// raw emits p with sticky error handling and offset accounting.
func (w *Writer) raw(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.dst.Write(p)
	w.off += int64(len(p))
}

// Write appends p to the open frame, ending it whenever it holds FrameSize
// bytes. Frame boundaries depend only on the payload offsets of the Cut calls
// so far, never on the chunking of Write calls.
func (w *Writer) Write(p []byte) (int, error) {
	if w.done {
		return 0, fmt.Errorf("blockio: write after Close")
	}
	n := 0
	for len(p) > 0 {
		if w.err != nil {
			return n, w.err
		}
		k := w.opt.FrameSize - len(w.buf)
		if k > len(p) {
			k = len(p)
		}
		w.buf = append(w.buf, p[:k]...)
		p = p[k:]
		n += k
		if len(w.buf) == w.opt.FrameSize {
			w.flushFrame()
		}
	}
	return n, w.err
}

// Cut ends the open frame at the current payload offset, so that what was
// written since the last boundary can be read back on its own (Index.ReadRange)
// and what follows has a full FrameSize ahead of it. On an empty frame — twice
// in a row, or right after Write filled one — it does nothing.
func (w *Writer) Cut() {
	if !w.done && w.err == nil && len(w.buf) > 0 {
		w.flushFrame()
	}
}

// flushFrame hands the current accumulator to the compressor and starts a
// fresh one.
func (w *Writer) flushFrame() {
	if w.opt.Workers <= 1 {
		j := &w.inline
		j.src = w.buf
		compressFrame(j, 0)
		w.writeFrame(j)
		w.buf = j.src[:0]
		return
	}
	j := w.getJob()
	j.src = w.buf
	w.buf = w.getBuf()
	w.pending = append(w.pending, j)
	w.jobs <- j
	// Bound in-flight frames to keep memory at O(workers), not O(payload).
	if len(w.pending) >= 2*w.opt.Workers {
		w.drainOne()
	}
}

// drainOne waits for the oldest in-flight frame and writes it out.
func (w *Writer) drainOne() {
	j := w.pending[0]
	copy(w.pending, w.pending[1:])
	w.pending = w.pending[:len(w.pending)-1]
	<-j.done
	w.writeFrame(j)
	w.freeBuf = append(w.freeBuf, j.src[:0])
	j.src = nil
	w.freeJob = append(w.freeJob, j)
}

// writeFrame emits one compressed frame and records its index entry.
func (w *Writer) writeFrame(j *encJob) {
	if j.err != nil && w.err == nil {
		w.err = j.err
	}
	if w.err != nil {
		return
	}
	meta := frameMeta{
		off:   w.off,
		usize: uint32(len(j.src)),
		csize: uint32(j.dst.Len()),
		crc:   j.crc,
	}
	w.u(uint64(meta.usize) + 1)
	w.u(uint64(meta.csize))
	w.u(uint64(meta.crc))
	w.raw(j.dst.Bytes())
	if w.err != nil {
		return
	}
	w.idx = append(w.idx, meta)
	w.nFrames++
	if sink := obs.Attached(); sink.Enabled() {
		w.frameLH.Observe(int64(meta.csize))
	}
}

// compressFrame deflates one frame at the fixed pool level and records its
// checksum. Runs on pool workers (or inline for Workers <= 1); lane is the
// worker index for the flight-recorder swimlane (0 inline).
func compressFrame(j *encJob, lane int32) {
	tsp := obs.AttachedRecorder().Begin(ftrace.CatIOEnc, ftrace.NameDeflate, lane)
	j.dst.Reset()
	fw := getFlate(&j.dst)
	_, werr := fw.Write(j.src)
	cerr := fw.Close()
	flateWriters.Put(fw)
	if werr == nil {
		werr = cerr
	}
	j.err = werr
	j.crc = crc32.ChecksumIEEE(j.src)
	tsp.End(int64(len(j.src)), int64(j.dst.Len()))
}

func (w *Writer) worker(lane int32) {
	defer w.wg.Done()
	for j := range w.jobs {
		compressFrame(j, lane)
		j.done <- struct{}{}
	}
}

func (w *Writer) getJob() *encJob {
	if n := len(w.freeJob); n > 0 {
		j := w.freeJob[n-1]
		w.freeJob = w.freeJob[:n-1]
		return j
	}
	return &encJob{done: make(chan struct{}, 1)}
}

func (w *Writer) getBuf() []byte {
	if n := len(w.freeBuf); n > 0 {
		b := w.freeBuf[n-1]
		w.freeBuf = w.freeBuf[:n-1]
		return b
	}
	return make([]byte, 0, w.opt.FrameSize)
}

// BytesWritten returns the container bytes emitted so far.
func (w *Writer) BytesWritten() int64 { return w.off }

// Close flushes the final (ragged) frame, stops the worker pool, and appends
// the terminator plus the footer index. It must be called exactly once; the
// container is invalid without it.
func (w *Writer) Close() error {
	if w.done {
		return w.err
	}
	w.done = true
	if len(w.buf) > 0 {
		w.flushFrame()
	}
	for len(w.pending) > 0 {
		w.drainOne()
	}
	if w.jobs != nil {
		close(w.jobs)
		w.wg.Wait()
	}
	w.u(0) // body terminator
	footerStart := w.off
	w.u(uint64(len(w.idx)))
	for _, m := range w.idx {
		w.u(uint64(m.off))
		w.u(uint64(m.usize))
		w.u(uint64(m.csize))
		w.u(uint64(m.crc))
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(w.off-footerStart))
	copy(trailer[8:], trailerMagic[:])
	w.raw(trailer[:])
	if sink := obs.Attached(); sink.Enabled() {
		sink.Add(obs.IOFramesEnc, w.nFrames)
		sink.FlushHist(obs.HistIOFrameBytes, &w.frameLH)
	}
	return w.err
}
