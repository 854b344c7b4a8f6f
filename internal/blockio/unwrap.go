package blockio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"repro/internal/encpool"
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
// workers bounds the CYPB inflate lanes: <= 1 inflates inline with no
// goroutines, more stripes the frames over that many (frame i on lane
// i mod workers). It never changes the returned bytes; other formats ignore
// it.
func Unwrap(data []byte, workers int) ([]byte, Format, error) {
	switch {
	case len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b:
		payload, err := gunzip(data)
		return payload, FormatGzip, err
	case len(data) >= len(Magic) && [4]byte(data[:4]) == Magic:
		payload, err := unblock(data, workers)
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
// it points at.
type frame struct {
	body  []byte // the frame's deflate bytes, a sub-slice of the container
	uoff  int    // payload offset the frame inflates to
	usize int
	crc   uint32
}

// readFrames parses a container footer-first and returns its frames plus the
// total payload length, having made every check that needs no inflating:
// magic, version and frame target; trailer magic and footer length; a frame
// count the footer bytes can hold; per-entry size caps, with each usize
// bounded by what its csize can inflate to; every frame header equal to its
// index entry; and frames tiling header to terminator to footer with no gap
// or overlap. The one allocation is the index, at most a small multiple of
// the footer bytes present.
func readFrames(data []byte) ([]frame, int, error) {
	hdr := cursor{b: data, off: len(Magic)}
	if v := hdr.u(); hdr.err == nil && v != version {
		return nil, 0, fmt.Errorf("blockio: unsupported version %d", v)
	}
	if target := hdr.u(); hdr.err == nil && (target == 0 || target > maxFrameSize) {
		return nil, 0, fmt.Errorf("blockio: implausible frame target %d", target)
	}
	if hdr.err != nil {
		return nil, 0, fmt.Errorf("blockio: reading header: %w", hdr.err)
	}
	end := len(data) - trailerLen
	if end < hdr.off {
		return nil, 0, errors.New("blockio: container too short for trailer")
	}
	if [4]byte(data[end+8:]) != trailerMagic {
		return nil, 0, fmt.Errorf("blockio: bad trailing magic %q", data[end+8:])
	}
	footerLen := binary.LittleEndian.Uint64(data[end : end+8])
	if footerLen > uint64(end-hdr.off) {
		return nil, 0, fmt.Errorf("blockio: implausible footer length %d", footerLen)
	}
	footerStart := end - int(footerLen)
	ft := cursor{b: data[:end], off: footerStart}
	count := ft.u()
	if ft.err != nil {
		return nil, 0, fmt.Errorf("blockio: footer frame count: %w", ft.err)
	}
	// An entry is four varints, so the footer bytes present bound the count a
	// hostile footer can make the index allocate for.
	if count > maxFrames || count > footerLen/4 {
		return nil, 0, fmt.Errorf("blockio: implausible footer frame count %d", count)
	}
	frames := make([]frame, count)
	fh := cursor{b: data[:footerStart], off: hdr.off}
	total := 0
	for i := range frames {
		off, usize, csize, crc := ft.u(), ft.u(), ft.u(), ft.u()
		if ft.err != nil {
			return nil, 0, fmt.Errorf("blockio: footer frame %d: %w", i, ft.err)
		}
		if usize > maxFrameSize || csize > maxFrameSize || crc > 0xffffffff || usize > maxInflate*csize {
			return nil, 0, fmt.Errorf("blockio: footer frame %d: implausible sizes (usize %d, csize %d, crc %d)", i, usize, csize, crc)
		}
		if off != uint64(fh.off) {
			return nil, 0, fmt.Errorf("blockio: footer frame %d at offset %d, frames tile to %d", i, off, fh.off)
		}
		u, c, k := fh.u(), fh.u(), fh.u()
		if fh.err != nil {
			return nil, 0, fmt.Errorf("blockio: frame %d header: %w", i, fh.err)
		}
		if u != usize+1 || c != csize || k != crc {
			return nil, 0, fmt.Errorf("blockio: frame %d header disagrees with footer index", i)
		}
		if csize > uint64(footerStart-fh.off) {
			return nil, 0, fmt.Errorf("blockio: frame %d body overruns the footer", i)
		}
		frames[i] = frame{body: data[fh.off : fh.off+int(csize)], uoff: total, usize: int(usize), crc: uint32(crc)}
		fh.off += int(csize)
		total += int(usize)
	}
	if ft.off != end {
		return nil, 0, fmt.Errorf("blockio: %d trailing footer bytes", end-ft.off)
	}
	if z := fh.u(); fh.err != nil || z != 0 || fh.off != footerStart {
		return nil, 0, fmt.Errorf("blockio: frames end at offset %d without a terminator before the footer at %d", fh.off, footerStart)
	}
	return frames, total, nil
}

// lane is one inflate worker's reusable state.
type lane struct {
	id  int32 // flight-recorder swimlane
	src bytes.Reader
	one [1]byte
}

// inflate is the per-frame step — index entry plus container bytes to
// verified payload: it decompresses f straight into its slot of payload and
// verifies the exact length and the checksum.
func (l *lane) inflate(f *frame, payload []byte) error {
	var t0 time.Time
	if sink.Enabled() {
		t0 = time.Now()
	}
	tsp := rec.Begin(ftrace.CatIODec, ftrace.NameInflate, l.id)
	dst := payload[f.uoff : f.uoff+f.usize]
	l.src.Reset(f.body)
	fr := encpool.GetFlateReader(&l.src)
	_, err := io.ReadFull(fr, dst)
	if err == nil {
		// The deflate stream must produce exactly usize bytes.
		if k, _ := fr.Read(l.one[:]); k != 0 {
			err = fmt.Errorf("longer than declared %d bytes", f.usize)
		}
	}
	encpool.PutFlateReader(fr)
	switch {
	case err == io.EOF:
		err = io.ErrUnexpectedEOF
	case err == nil && crc32.ChecksumIEEE(dst) != f.crc:
		err = errors.New("checksum mismatch")
	}
	tsp.End(int64(len(f.body)), int64(f.usize))
	if sink.Enabled() {
		sink.Inc(obs.IOFramesDec)
		sink.ObserveSince(obs.HistIOInflateNS, t0)
	}
	return err
}

// unblock reads a whole CYPB container: the index sizes the payload once and
// every frame inflates from its sub-slice of data into its slot.
func unblock(data []byte, workers int) ([]byte, error) {
	frames, total, err := readFrames(data)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, total)
	if workers > len(frames) {
		workers = len(frames)
	}
	if workers < 1 {
		workers = 1
	}
	// Static striping: the lane a frame lands on depends only on its index,
	// so a traced run records the same swimlanes every time.
	stripe := func(w int) error {
		l := lane{id: int32(w)}
		for i := w; i < len(frames); i += workers {
			if err := l.inflate(&frames[i], payload); err != nil {
				return fmt.Errorf("blockio: frame %d: %w", i, err)
			}
		}
		return nil
	}
	// Lane 0 runs on the caller, so one worker means no goroutines at all.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = stripe(w)
		}(w)
	}
	errs[0] = stripe(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return payload, nil
}
