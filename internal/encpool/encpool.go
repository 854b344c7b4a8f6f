// Package encpool provides shared sync.Pools for the codec-side allocation
// hot spots: gzip and raw-deflate writers (whose Reset makes them fully
// reusable but whose construction allocates ~1.4MB of deflate state), flate
// readers, bufio writers/readers, and byte buffers. Measure's per-rank
// artifact finishing constructs one gzip stream per rank per method, and the
// blocked container compresses one deflate frame per ~frame-size bytes;
// pooling turns both from allocator round-trips per use into a handful of
// long-lived objects shared across the run.
package encpool

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"io"
	"sync"
)

var gzipPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// GetGzip returns a pooled gzip writer reset to stream into w.
func GetGzip(w io.Writer) *gzip.Writer {
	gz := gzipPool.Get().(*gzip.Writer)
	gz.Reset(w)
	return gz
}

// PutGzip returns a gzip writer to the pool. The caller must have Closed (or
// otherwise finished with) it; the next GetGzip resets all state.
func PutGzip(gz *gzip.Writer) {
	if gz != nil {
		gzipPool.Put(gz)
	}
}

// FlateLevel is the deflate level every pooled flate.Writer is constructed
// with. It matches gzip.NewWriter's default so the blocked container trades
// like-for-like against Cypress+Gzip, and it is part of the CYPB determinism
// contract: frames are byte-identical across worker counts only because every
// worker compresses at the same fixed level.
const FlateLevel = flate.DefaultCompression

var flatePool = sync.Pool{
	New: func() any {
		fw, err := flate.NewWriter(io.Discard, FlateLevel)
		if err != nil {
			// Unreachable: FlateLevel is a compile-time valid constant.
			panic(err)
		}
		return fw
	},
}

// GetFlate returns a pooled raw-deflate writer reset to stream into w. Like
// the gzip pool, this amortizes the ~1.4MB of deflate state per writer across
// every frame the blocked encoder compresses.
func GetFlate(w io.Writer) *flate.Writer {
	fw := flatePool.Get().(*flate.Writer)
	fw.Reset(w)
	return fw
}

// PutFlate returns a flate writer to the pool. The caller must have Closed
// (or otherwise finished with) it; the next GetFlate resets all state.
func PutFlate(fw *flate.Writer) {
	if fw != nil {
		flatePool.Put(fw)
	}
}

// emptySrc parks pooled flate readers between uses. It is never read from:
// every GetFlateReader resets the reader onto a live source first.
var emptySrc = bytes.NewReader(nil)

var inflatePool = sync.Pool{
	New: func() any { return flate.NewReader(emptySrc) },
}

// GetFlateReader returns a pooled raw-deflate reader reset to r with no
// preset dictionary. The stdlib guarantees the value implements
// flate.Resetter, which is what makes the pool possible.
func GetFlateReader(r io.Reader) io.ReadCloser {
	fr := inflatePool.Get().(io.ReadCloser)
	if err := fr.(flate.Resetter).Reset(r, nil); err != nil {
		// Reset with a nil dictionary cannot fail; keep the reader usable
		// anyway by falling back to a fresh one.
		fr = flate.NewReader(r)
	}
	return fr
}

// PutFlateReader returns a flate reader to the pool, dropping its source so
// the pool does not pin the underlying stream.
func PutFlateReader(fr io.ReadCloser) {
	if fr == nil {
		return
	}
	if res, ok := fr.(flate.Resetter); ok {
		_ = res.Reset(emptySrc, nil)
		inflatePool.Put(fr)
	}
}

const bufioSize = 1 << 16

var bufioPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, bufioSize) },
}

// GetBufio returns a pooled 64KB bufio.Writer reset to w.
func GetBufio(w io.Writer) *bufio.Writer {
	bw := bufioPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// PutBufio returns a bufio writer to the pool. The caller must have Flushed;
// Reset on reuse discards any unflushed state.
func PutBufio(bw *bufio.Writer) {
	if bw != nil {
		bw.Reset(io.Discard)
		bufioPool.Put(bw)
	}
}

var bufioReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, bufioSize) },
}

// GetBufioReader returns a pooled 64KB bufio.Reader reset to r. The decode
// path constructs one buffered reader per trace file; pooling keeps repeated
// decodes (bench harness cells, round-trip tests) from re-allocating the
// buffer each time.
func GetBufioReader(r io.Reader) *bufio.Reader {
	br := bufioReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutBufioReader returns a reader to the pool, dropping its source so the
// pool does not pin the underlying stream.
func PutBufioReader(br *bufio.Reader) {
	if br != nil {
		br.Reset(nil)
		bufioReaderPool.Put(br)
	}
}

var bufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// GetBuffer returns a pooled empty bytes.Buffer.
func GetBuffer() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBuffer returns a buffer to the pool. Oversized buffers are dropped so a
// single huge encode does not pin its high-water mark forever.
func PutBuffer(b *bytes.Buffer) {
	if b == nil || b.Cap() > 1<<22 {
		return
	}
	bufPool.Put(b)
}
