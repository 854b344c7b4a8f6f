package blockio

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
)

// Format identifies a trace container layer, sniffed from its leading magic.
type Format uint8

const (
	// FormatRaw is a bare payload (for trace files, the CYPR stream).
	FormatRaw Format = iota
	// FormatGzip is the payload inside a gzip member (Cypress+Gzip).
	FormatGzip
	// FormatBlocked is the payload inside a CYPB block container.
	FormatBlocked
)

// String returns the format's stable name.
func (f Format) String() string {
	switch f {
	case FormatRaw:
		return "raw"
	case FormatGzip:
		return "gzip"
	case FormatBlocked:
		return "blocked"
	}
	return "unknown"
}

// Unwrap is the one reader of trace containers: it strips the layer a file
// held in memory wears — sniffed from the leading magic — and returns the
// bare payload plus the format that was removed.
//
//   - Raw (anything else) comes back as is, zero copy: the result aliases
//     data, trailing bytes included (the CYPI sidecar rides there).
//   - Gzip must hold one complete, CRC-valid member; whatever follows it is
//     ignored.
//   - CYPB is strict: trailer and footer index must validate and end the
//     file, every frame header must agree with its index entry, the frames
//     must tile header to terminator to footer exactly, and every frame must
//     inflate to its declared length and CRC-32.
//
// Frames inflate in order on the caller's goroutine.
func Unwrap(data []byte) ([]byte, Format, error) {
	switch {
	case len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b:
		payload, err := gunzip(data)
		return payload, FormatGzip, err
	case len(data) >= len(Magic) && [4]byte(data[:4]) == Magic:
		x, err := Scan(data)
		if err != nil {
			return nil, FormatBlocked, err
		}
		payload, err := x.Inflate(data)
		return payload, FormatBlocked, err
	}
	return data, FormatRaw, nil
}

func gunzip(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("blockio: gzip layer: %w", err)
	}
	zr.Multistream(false)
	payload, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("blockio: gzip layer: %w", err)
	}
	return payload, nil
}

// cursor is an error-latching uvarint reader over a byte slice.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) u() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("truncated or oversized uvarint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// frame is one footer index entry, already checked against the frame header
// it points at. Offsets are container offsets: an index outlives its bytes.
type frame struct {
	off   int // the frame's usize+1 header
	boff  int // the frame's deflate bytes
	csize int
	uoff  int // payload offset the frame inflates to
	usize int
	crc   uint32
}

// header reads one frame header at the cursor and holds it to f's index entry.
func (c *cursor) header(f *frame) error {
	u, z, k := c.u(), c.u(), c.u()
	if c.err != nil {
		return c.err
	}
	if u != uint64(f.usize)+1 || z != uint64(f.csize) || k != uint64(f.crc) {
		return errors.New("header disagrees with footer index")
	}
	return nil
}

// Index is the frame table of one container: which container bytes inflate to
// which payload bytes. It holds offsets only, so a caller may keep it, let the
// container go and read payload ranges back from the file (ReadRange).
type Index struct {
	frames []frame
	total  int
}

// Len returns the container's payload length.
func (x *Index) Len() int { return x.total }

// Scan parses a container footer-first and returns its frame table, having
// made every check that needs no inflating: magic, version and frame target;
// trailer magic and footer length; a frame count the footer bytes can hold;
// per-entry size caps, with each usize bounded by what its csize can inflate
// to; every frame header equal to its index entry; and frames tiling header to
// terminator to footer with no gap or overlap. The one allocation is the
// index, at most a small multiple of the footer bytes present.
func Scan(data []byte) (*Index, error) {
	if len(data) < len(Magic) || [4]byte(data[:4]) != Magic {
		return nil, errors.New("blockio: not a CYPB container")
	}
	hdr := cursor{b: data, off: len(Magic)}
	if v := hdr.u(); hdr.err == nil && v != version {
		return nil, fmt.Errorf("blockio: unsupported version %d", v)
	}
	if target := hdr.u(); hdr.err == nil && (target == 0 || target > maxFrameSize) {
		return nil, fmt.Errorf("blockio: implausible frame target %d", target)
	}
	if hdr.err != nil {
		return nil, fmt.Errorf("blockio: reading header: %w", hdr.err)
	}
	end := len(data) - trailerLen
	if end < hdr.off {
		return nil, errors.New("blockio: container too short for trailer")
	}
	if [4]byte(data[end+8:]) != trailerMagic {
		return nil, fmt.Errorf("blockio: bad trailing magic %q", data[end+8:])
	}
	footerLen := binary.LittleEndian.Uint64(data[end : end+8])
	if footerLen > uint64(end-hdr.off) {
		return nil, fmt.Errorf("blockio: implausible footer length %d", footerLen)
	}
	footerStart := end - int(footerLen)
	ft := cursor{b: data[:end], off: footerStart}
	count := ft.u()
	if ft.err != nil {
		return nil, fmt.Errorf("blockio: footer frame count: %w", ft.err)
	}
	// An entry is four varints, so the footer bytes present bound the count a
	// hostile footer can make the index allocate for.
	if count > maxFrames || count > footerLen/4 {
		return nil, fmt.Errorf("blockio: implausible footer frame count %d", count)
	}
	x := &Index{frames: make([]frame, count)}
	fh := cursor{b: data[:footerStart], off: hdr.off}
	for i := range x.frames {
		off, usize, csize, crc := ft.u(), ft.u(), ft.u(), ft.u()
		if ft.err != nil {
			return nil, fmt.Errorf("blockio: footer frame %d: %w", i, ft.err)
		}
		if usize > maxFrameSize || csize > maxFrameSize || crc > 0xffffffff || usize > maxInflate*csize {
			return nil, fmt.Errorf("blockio: footer frame %d: implausible sizes (usize %d, csize %d, crc %d)", i, usize, csize, crc)
		}
		if off != uint64(fh.off) {
			return nil, fmt.Errorf("blockio: footer frame %d at offset %d, frames tile to %d", i, off, fh.off)
		}
		f := &x.frames[i]
		*f = frame{off: fh.off, csize: int(csize), uoff: x.total, usize: int(usize), crc: uint32(crc)}
		if err := fh.header(f); err != nil {
			return nil, fmt.Errorf("blockio: frame %d: %w", i, err)
		}
		f.boff = fh.off
		if csize > uint64(footerStart-fh.off) {
			return nil, fmt.Errorf("blockio: frame %d body overruns the footer", i)
		}
		fh.off += f.csize
		x.total += f.usize
	}
	if ft.off != end {
		return nil, fmt.Errorf("blockio: %d trailing footer bytes", end-ft.off)
	}
	if z := fh.u(); fh.err != nil || z != 0 || fh.off != footerStart {
		return nil, fmt.Errorf("blockio: frames end at offset %d without a terminator before the footer at %d", fh.off, footerStart)
	}
	return x, nil
}

// inflate is the per-frame step — index entry plus the frame's deflate bytes to
// verified payload: it decompresses body straight into dst, which is sized to
// the declared length, and verifies that exact length and the checksum.
func (in *inflater) inflate(f *frame, body, dst []byte) error {
	tsp := obs.AttachedRecorder().Begin(ftrace.CatIODec, ftrace.NameInflate, 0)
	in.src.Reset(body)
	err := in.fr.(flate.Resetter).Reset(&in.src, nil)
	if err == nil {
		_, err = io.ReadFull(in.fr, dst)
	}
	if err == nil {
		// The deflate stream must produce exactly usize bytes and then end:
		// its closing block carries no payload, so the CRC does not guard it.
		if k, rerr := in.fr.Read(in.one[:]); k != 0 {
			err = fmt.Errorf("longer than declared %d bytes", f.usize)
		} else if rerr != io.EOF {
			err = fmt.Errorf("after the declared %d bytes: %w", f.usize, rerr)
		}
	}
	switch {
	case err == io.EOF:
		err = io.ErrUnexpectedEOF
	case err == nil && crc32.ChecksumIEEE(dst) != f.crc:
		err = errors.New("checksum mismatch")
	}
	tsp.End(int64(len(body)), int64(f.usize))
	obs.Attached().Inc(obs.IOFramesDec)
	return err
}

// inflateFrames inflates frames [lo, hi), in order, into one buffer sized by
// the index. data holds their container bytes; data[0] sits at container
// offset base.
func (x *Index) inflateFrames(lo, hi int, data []byte, base int) ([]byte, error) {
	frames := x.frames[lo:hi]
	at, end := 0, 0 // payload offsets the frames span
	if n := len(frames); n > 0 {
		at, end = frames[0].uoff, frames[n-1].uoff+frames[n-1].usize
	}
	payload := make([]byte, end-at)
	in := getInflater()
	defer putInflater(in)
	for i := range frames {
		f := &frames[i]
		if err := in.inflate(f, data[f.boff-base:][:f.csize], payload[f.uoff-at:][:f.usize]); err != nil {
			return nil, fmt.Errorf("blockio: frame %d: %w", lo+i, err)
		}
	}
	return payload, nil
}

// Inflate reads the whole payload of data, the container Scan returned x
// for: the index sizes the payload once and every frame inflates from its
// sub-slice of data into its slot, held to its length and CRC-32.
func (x *Index) Inflate(data []byte) ([]byte, error) {
	return x.inflateFrames(0, len(x.frames), data, 0)
}

// ReadRange inflates only the frames covering payload bytes [off, off+n),
// reading their container bytes from src at the offsets Scan found them. It
// returns everything those frames hold and the payload offset of its first
// byte: the range asked for is p[off-at:][:n], and where the writer Cut at off
// and at off+n it is p. Every covering frame is held to the index again (header,
// length, CRC-32): bytes that changed under src since Scan are an error, and
// damage to any other frame is not seen at all.
func (x *Index) ReadRange(src io.ReaderAt, off, n int) (p []byte, at int, err error) {
	if off < 0 || n < 0 || off > x.total-n {
		return nil, 0, fmt.Errorf("blockio: range [%d, %d+%d) outside a payload of %d bytes", off, off, n, x.total)
	}
	lo := sort.Search(len(x.frames), func(i int) bool { f := &x.frames[i]; return f.uoff+f.usize > off })
	hi := lo
	for hi < len(x.frames) && x.frames[hi].uoff < off+n {
		hi++
	}
	if lo == hi {
		return nil, off, nil
	}
	first, last := &x.frames[lo], &x.frames[hi-1]
	span := make([]byte, last.boff+last.csize-first.off)
	if k, err := src.ReadAt(span, int64(first.off)); k < len(span) {
		return nil, 0, fmt.Errorf("blockio: reading frames %d..%d: %w", lo, hi-1, err)
	}
	for i := lo; i < hi; i++ {
		f := &x.frames[i]
		c := cursor{b: span[:f.boff-first.off], off: f.off - first.off}
		if err := c.header(f); err != nil || c.off != len(c.b) {
			return nil, 0, fmt.Errorf("blockio: frame %d: header no longer matches the index", i)
		}
	}
	p, err = x.inflateFrames(lo, hi, span, first.off)
	return p, first.uoff, err
}
