// Package rawgzip is the Gzip baseline of the paper's evaluation: per-rank
// raw binary event streams (the OTF-like uncompressed format) compressed
// with stdlib gzip. There is no inter-process compression, so the total
// trace volume grows linearly with the number of processes — the behavior
// Figure 15's Gzip series shows.
package rawgzip

import (
	"bytes"
	"compress/gzip"

	"repro/internal/trace"
)

// Writer is a per-rank sink that streams events into a gzip-compressed raw
// trace buffer.
type Writer struct {
	buf      bytes.Buffer
	gz       *gzip.Writer
	tw       *trace.Writer
	events   int64
	rawBytes int64
	finished bool
}

// NewWriter returns a sink for one rank.
func NewWriter() *Writer {
	w := &Writer{}
	w.gz = gzip.NewWriter(&w.buf)
	w.tw = trace.NewWriter(w.gz)
	return w
}

// Structure markers are ignored: gzip sees only serialized events.

func (w *Writer) LoopEnter(int32)         {}
func (w *Writer) LoopIter(int32)          {}
func (w *Writer) BranchEnter(int32, int8) {}
func (w *Writer) BranchSkip(int32)        {}
func (w *Writer) CallEnter(int32)         {}
func (w *Writer) StructExit()             {}
func (w *Writer) CommSite(int32)          {}

// Event implements trace.Sink.
func (w *Writer) Event(e *trace.Event) {
	w.events++
	w.tw.WriteEvent(e)
}

// Finalize implements trace.Sink.
func (w *Writer) Finalize() {
	n, err := w.tw.Flush()
	if err == nil {
		err = w.gz.Close()
	}
	if err != nil {
		panic("rawgzip: " + err.Error())
	}
	w.gz = nil
	w.rawBytes = n
	w.finished = true
}

// CompressedBytes returns the gzip stream size for this rank.
func (w *Writer) CompressedBytes() int64 {
	if !w.finished {
		panic("rawgzip: CompressedBytes before Finalize")
	}
	return int64(w.buf.Len())
}

// RawBytes returns the uncompressed stream size for this rank.
func (w *Writer) RawBytes() int64 {
	if !w.finished {
		panic("rawgzip: RawBytes before Finalize")
	}
	return w.rawBytes
}

// Events returns the number of events recorded.
func (w *Writer) Events() int64 { return w.events }

// Bytes returns the compressed stream contents.
func (w *Writer) Bytes() []byte { return w.buf.Bytes() }

// Decode decompresses and decodes a stream written by Writer, validating
// the round trip.
func Decode(data []byte) ([]trace.Event, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer gz.Close()
	return trace.NewReader(gz).ReadAll()
}

// TotalCompressed sums per-rank compressed sizes — the job-wide trace
// volume of the Gzip approach.
func TotalCompressed(ws []*Writer) int64 {
	var n int64
	for _, w := range ws {
		n += w.CompressedBytes()
	}
	return n
}

// TotalRaw sums per-rank raw sizes.
func TotalRaw(ws []*Writer) int64 {
	var n int64
	for _, w := range ws {
		n += w.RawBytes()
	}
	return n
}
