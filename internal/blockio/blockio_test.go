package blockio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// testPayload builds a deterministic pseudo-random payload with enough
// structure (repeated 64-byte motifs) that deflate actually compresses it.
func testPayload(n int) []byte {
	rng := rand.New(rand.NewSource(42))
	motifs := make([][]byte, 16)
	for i := range motifs {
		motifs[i] = make([]byte, 64)
		rng.Read(motifs[i])
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		m := motifs[rng.Intn(len(motifs))]
		if rem := n - len(out); rem < len(m) {
			m = m[:rem]
		}
		out = append(out, m...)
	}
	return out
}

// encode round-trips payload through a container with the given options.
func encode(t testing.TB, payload []byte, opt WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Write in awkward chunk sizes to prove framing ignores call chunking.
	for off := 0; off < len(payload); {
		k := 1000
		if off+k > len(payload) {
			k = len(payload) - off
		}
		if _, err := w.Write(payload[off : off+k]); err != nil {
			t.Fatal(err)
		}
		off += k
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.BytesWritten(); got != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d, buffer has %d", got, buf.Len())
	}
	return buf.Bytes()
}

// decode reads a CYPB container back. Damage
// to the leading magic makes Unwrap sniff some other format; for a caller
// that expects a container that is as much an error as any other. Every
// container any test decodes is also read whole through the range reader,
// which must reach Unwrap's verdict: refuse what it refuses, and return the
// same bytes for what it accepts.
func decode(t testing.TB, enc []byte) ([]byte, error) {
	t.Helper()
	payload, format, err := Unwrap(enc)
	if err == nil && format != FormatBlocked {
		err = fmt.Errorf("sniffed %v, want a CYPB container", format)
	}
	ranged, rerr := readRange(enc, 0, -1)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("Unwrap says %v, the range reader %v", err, rerr)
	}
	if err == nil && !bytes.Equal(ranged, payload) {
		t.Fatal("Unwrap and a whole-payload range read return different bytes")
	}
	return payload, err
}

// readRange is the range reader end to end over a container held in memory:
// Scan, then ReadRange of [off, off+n), sliced down to the range. n < 0 asks
// for everything from off on.
func readRange(enc []byte, off, n int) ([]byte, error) {
	x, err := Scan(enc)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		n = x.Len() - off
	}
	p, at, err := x.ReadRange(bytes.NewReader(enc), off, n)
	if err != nil {
		return nil, err
	}
	return p[off-at:][:n], nil
}

// encodeCuts writes payload in chunk-byte Writes, calling Cut at each of the
// payload offsets in cuts (ascending; repeats are repeated Cuts).
func encodeCuts(t testing.TB, payload []byte, opt WriterOptions, chunk int, cuts []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; ; {
		for len(cuts) > 0 && cuts[0] == off {
			w.Cut()
			cuts = cuts[1:]
		}
		if off == len(payload) {
			break
		}
		end := min(off+chunk, len(payload))
		if len(cuts) > 0 {
			end = min(end, cuts[0])
		}
		if _, err := w.Write(payload[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// every returns the multiples of k in (0, n].
func every(k, n int) []int {
	var out []int
	for c := k; c <= n; c += k {
		out = append(out, c)
	}
	return out
}

func TestRoundTripSizes(t *testing.T) {
	const frame = 4 << 10
	for _, n := range []int{0, 1, 100, frame - 1, frame, frame + 1, 3 * frame, 10*frame + 137} {
		for _, encW := range []int{1, 3} {
			payload := testPayload(n)
			enc := encode(t, payload, WriterOptions{FrameSize: frame, Workers: encW})
			got, err := decode(t, enc)
			if err != nil {
				t.Fatalf("n=%d encW=%d: %v", n, encW, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("n=%d encW=%d: payload mismatch (%d vs %d bytes)",
					n, encW, len(got), len(payload))
			}
		}
	}
}

// TestDeterministicAcrossWorkers pins the format's central determinism
// claim: for a fixed frame size, the emitted container bytes are identical
// at every worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	payload := testPayload(300 << 10)
	base := encode(t, payload, WriterOptions{FrameSize: 32 << 10, Workers: 1})
	for _, workers := range []int{2, 4, 7} {
		got := encode(t, payload, WriterOptions{FrameSize: 32 << 10, Workers: workers})
		if !bytes.Equal(base, got) {
			t.Fatalf("workers=%d: container differs from workers=1 (%d vs %d bytes)",
				workers, len(got), len(base))
		}
	}
	// A different frame size legitimately produces different bytes (frame
	// boundaries move), but still round-trips.
	other := encode(t, payload, WriterOptions{FrameSize: 16 << 10, Workers: 2})
	if bytes.Equal(base, other) {
		t.Fatal("different frame sizes produced identical containers")
	}
	got, err := decode(t, other)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("16KB-frame container failed to round-trip: %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	payload := testPayload(40 << 10)
	enc := encode(t, payload, WriterOptions{FrameSize: 8 << 10, Workers: 2})
	// Flip one byte at every offset band: header, frame bodies, footer.
	for _, off := range []int{0, 3, 10, len(enc) / 4, len(enc) / 2, len(enc) - 20, len(enc) - 3} {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x5a
		got, err := decode(t, mut)
		if err == nil && bytes.Equal(got, payload) {
			// Flips inside deflate padding bits can be harmless; only a
			// silent wrong payload is a failure.
			continue
		}
		if err == nil {
			t.Fatalf("off=%d: corruption decoded silently to %d differing bytes", off, len(got))
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	payload := testPayload(40 << 10)
	enc := encode(t, payload, WriterOptions{FrameSize: 8 << 10, Workers: 1})
	for cut := 0; cut < len(enc); cut += 97 {
		got, err := decode(t, enc[:cut])
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded silently (%d bytes)", cut, len(enc), len(got))
		}
	}
}

// TestMangledFooter verifies the footer index is cross-checked against the
// frames it describes: every field disagreement errors even though each frame
// would inflate fine.
func TestMangledFooter(t *testing.T) {
	payload := testPayload(20 << 10)
	enc := encode(t, payload, WriterOptions{FrameSize: 8 << 10, Workers: 1})
	x, err := Scan(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.frames) != 3 || x.Len() != len(payload) {
		t.Fatalf("fixture has %d frames of %d bytes, want 3 of %d", len(x.frames), x.Len(), len(payload))
	}
	// The footer spans [len-12-footerLen, len-12); flip every byte of it and
	// of the trailer.
	footerLen := int(binary.LittleEndian.Uint64(enc[len(enc)-trailerLen:]))
	footerStart := len(enc) - trailerLen - footerLen
	for off := footerStart; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x11
		if _, err := decode(t, mut); err == nil {
			t.Fatalf("mangled footer byte %d accepted", off)
		}
	}
}

// TestFrameTiling pins the checks that replace reading frames in stream
// order: frames must tile the span between header and footer exactly, so an
// index whose offsets leave a gap, overlap, run outside the file or skip the
// terminator is refused even though every entry matches a real frame header.
// It also pins the two checks only inflating can make — exact length and
// CRC-32 — with a header and index that agree on the lie.
func TestFrameTiling(t *testing.T) {
	payload := testPayload(20 << 10)
	enc := encode(t, payload, WriterOptions{FrameSize: 8 << 10, Workers: 1})
	// Walk the frames in stream order, independently of readFrames, to
	// recover the index the writer emitted.
	var metas []frameMeta
	var bodies [][]byte       // each frame's deflate bytes
	pos := len(Magic) + 1 + 2 // magic, one-byte version, two-byte frame target (8KB)
	for {
		u, n := binary.Uvarint(enc[pos:])
		if u == 0 {
			pos += n
			break
		}
		csize, cn := binary.Uvarint(enc[pos+n:])
		crc, kn := binary.Uvarint(enc[pos+n+cn:])
		metas = append(metas, frameMeta{off: int64(pos), usize: uint32(u - 1), csize: uint32(csize), crc: uint32(crc)})
		bodies = append(bodies, enc[pos+n+cn+kn:pos+n+cn+kn+int(csize)])
		pos += n + cn + kn + int(csize)
	}
	footerStart := pos
	if len(metas) != 3 {
		t.Fatalf("fixture has %d frames, want 3", len(metas))
	}
	withFooter := func(body []byte, idx []frameMeta) []byte {
		out := append([]byte(nil), body...)
		start := len(out)
		out = binary.AppendUvarint(out, uint64(len(idx)))
		for _, m := range idx {
			out = binary.AppendUvarint(out, uint64(m.off))
			out = binary.AppendUvarint(out, uint64(m.usize))
			out = binary.AppendUvarint(out, uint64(m.csize))
			out = binary.AppendUvarint(out, uint64(m.crc))
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(len(out)-start))
		return append(out, trailerMagic[:]...)
	}
	body := enc[:footerStart]
	if got := withFooter(body, metas); !bytes.Equal(got, enc) {
		t.Fatal("test helper does not reproduce the writer's container")
	}
	// relabel re-emits the container with the first frame's header and index
	// entry both declaring usize and crc: consistent with each other, so only
	// the inflate-time checks can catch the lie.
	relabel := func(usize, crc uint32) []byte {
		out := append([]byte(nil), enc[:metas[0].off]...)
		idx := append([]frameMeta(nil), metas...)
		idx[0].usize, idx[0].crc = usize, crc
		for i := range idx {
			idx[i].off = int64(len(out))
			out = binary.AppendUvarint(out, uint64(idx[i].usize)+1)
			out = binary.AppendUvarint(out, uint64(idx[i].csize))
			out = binary.AppendUvarint(out, uint64(idx[i].crc))
			out = append(out, bodies[i]...)
		}
		return withFooter(append(out, 0), idx)
	}
	if got := relabel(metas[0].usize, metas[0].crc); !bytes.Equal(got, enc) {
		t.Fatal("relabel does not reproduce the writer's container")
	}
	short := metas[0].usize - 1
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"frame inflates to more than header and index declare", relabel(short, crc32.ChecksumIEEE(payload[:short]))},
		{"frame inflates to less than header and index declare", relabel(metas[0].usize+1, metas[0].crc)},
		{"checksum wrong in header and index alike", relabel(metas[0].usize, metas[0].crc^1)},
		{"gap: index skips the first frame", withFooter(body, metas[1:])},
		{"overlap: index lists a frame twice", withFooter(body, []frameMeta{metas[0], metas[1], metas[1], metas[2]})},
		{"short: index stops before the last frame", withFooter(body, metas[:2])},
		{"no terminator", withFooter(body[:len(body)-1], metas)},
		{"offset outside the file", withFooter(body, []frameMeta{metas[0], metas[1], {off: 1 << 40, usize: metas[2].usize, csize: metas[2].csize, crc: metas[2].crc}})},
		{"trailing bytes after the trailer", append(append([]byte(nil), enc...), 0)},
	} {
		if _, err := decode(t, tc.enc); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestHostileSizesStayCheap: footer-first sizing must not let a few bytes buy
// a large allocation. A sub-100-byte container declaring 2^24 frames of 2^27
// bytes errors having allocated next to nothing, and a frame claiming more
// payload than its compressed bytes could inflate to is refused before the
// payload buffer is made.
func TestHostileSizesStayCheap(t *testing.T) {
	head := append(append([]byte(nil), Magic[:]...), version, 0x80, 0x80, 0x08) // frame target 128KB
	withFooter := func(body, footer []byte) []byte {
		out := append(append([]byte(nil), body...), footer...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(footer)))
		return append(out, trailerMagic[:]...)
	}
	entry := func(off, usize, csize, crc uint64) []byte {
		var e []byte
		for _, v := range []uint64{off, usize, csize, crc} {
			e = binary.AppendUvarint(e, v)
		}
		return e
	}
	// 2^24 frames x 2^27 bytes: the count alone outruns the footer bytes.
	many := binary.AppendUvarint(nil, maxFrames)
	many = append(many, entry(uint64(len(head)), maxFrameSize, 1, 0)...)
	// One frame whose 8 compressed bytes claim 128MB.
	fhdr := binary.AppendUvarint(nil, maxFrameSize+1)
	fhdr = append(fhdr, 8, 0)
	big := append(append(append([]byte(nil), head...), fhdr...), make([]byte, 8)...)
	big = append(big, 0)
	bigFooter := append([]byte{1}, entry(uint64(len(head)), maxFrameSize, 8, 0)...)
	// The most the ratio bound lets through: 1032 bytes per compressed byte.
	const claim = 8 * maxInflate
	ehdr := binary.AppendUvarint(nil, claim+1)
	ehdr = append(ehdr, 8, 0)
	earned := append(append(append([]byte(nil), head...), ehdr...), make([]byte, 8)...)
	earned = append(earned, 0)
	earnedFooter := append([]byte{1}, entry(uint64(len(head)), claim, 8, 0)...)
	for _, tc := range []struct {
		name   string
		enc    []byte
		budget uint64 // bytes Unwrap may allocate before erroring
	}{
		{"2^24 frames x 2^27 bytes", withFooter(append(append([]byte(nil), head...), 0), many), 16 << 10},
		{"8 bytes claim 128MB", withFooter(big, bigFooter), 16 << 10},
		{"8 bytes claim 8*1032", withFooter(earned, earnedFooter), 64 << 10},
	} {
		if len(tc.enc) >= 100 {
			t.Fatalf("%s: container is %d bytes, want < 100", tc.name, len(tc.enc))
		}
		for _, read := range []struct {
			name string
			fn   func() error
		}{
			{"Unwrap", func() error { _, _, err := Unwrap(tc.enc); return err }},
			{"range read", func() error { _, err := readRange(tc.enc, 0, -1); return err }},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read.fn()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: %s accepted", tc.name, read.name)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > tc.budget {
				t.Errorf("%s: %s allocated %d bytes for a %d-byte input, budget %d (%v)", tc.name, read.name, got, len(tc.enc), tc.budget, err)
			}
		}
	}
}

func TestSniffFormats(t *testing.T) {
	payload := []byte("CYPRnot really, but enough payload to sniff")
	blocked := encode(t, payload, WriterOptions{FrameSize: 1 << 10, Workers: 1})

	var gzBuf bytes.Buffer
	gw := gzip.NewWriter(&gzBuf)
	gw.Write(payload)
	gw.Close()

	cases := []struct {
		name string
		in   []byte
		want Format
	}{
		{"raw", payload, FormatRaw},
		{"gzip", gzBuf.Bytes(), FormatGzip},
		{"blocked", blocked, FormatBlocked},
		{"short", []byte{'C'}, FormatRaw},
	}
	for _, tc := range cases {
		got, format, err := Unwrap(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if format != tc.want {
			t.Fatalf("%s: sniffed %v, want %v", tc.name, format, tc.want)
		}
		want := payload
		if tc.name == "short" {
			// Too short to hold any container magic: handed to the payload
			// parser raw, whose own magic check produces the canonical error.
			want = tc.in
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: payload mismatch", tc.name)
		}
	}
}

func ExampleWriter() {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, WriterOptions{FrameSize: 8 << 10, Workers: 4})
	io.WriteString(w, "payload bytes")
	w.Close()
	out, format, _ := Unwrap(buf.Bytes())
	fmt.Println(format, string(out))
	// Output: blocked payload bytes
}

// cutLayouts is every way a writer can come to its frame boundaries: by the
// frame size alone, by cuts alone, by both, by cuts that fall where a frame
// ended anyway, by a cut repeated, and around no payload at all.
func cutLayouts() []struct {
	name    string
	payload []byte
	frame   int
	cuts    []int
} {
	small := testPayload(300)
	return []struct {
		name    string
		payload []byte
		frame   int
		cuts    []int
	}{
		{"default frame size", testPayload(300 << 10), 0, nil},
		{"default frame size, three records", testPayload(300 << 10), 0, []int{1000, 150 << 10, 300 << 10}},
		{"tiny frames", small, 16, nil},
		{"cut every 7 bytes", small, 64, every(7, len(small))},
		{"cut every 100 bytes, frames of 64", small, 64, every(100, len(small))},
		{"cuts on frame boundaries", small, 64, every(64, len(small))},
		{"every cut doubled", small, 64, []int{0, 0, 50, 50, 130, 130, 300, 300}},
		{"zero-length payload", nil, 64, nil},
		{"zero-length payload, cut", nil, 64, []int{0, 0}},
	}
}

// TestReadRangeMatchesUnwrap: whatever the frame layout, every range read
// returns the same bytes as that slice of what Unwrap returns.
func TestReadRangeMatchesUnwrap(t *testing.T) {
	for _, lay := range cutLayouts() {
		enc := encodeCuts(t, lay.payload, WriterOptions{FrameSize: lay.frame, Workers: 2}, 1000, lay.cuts)
		whole, err := decode(t, enc)
		if err != nil || !bytes.Equal(whole, lay.payload) {
			t.Fatalf("%s: container does not round-trip: %v", lay.name, err)
		}
		x, err := Scan(enc)
		if err != nil {
			t.Fatal(err)
		}
		// Offsets worth reading from and to: both ends, and either side of
		// every frame boundary.
		seen := map[int]bool{}
		var marks []int
		for _, f := range x.frames {
			for _, m := range []int{f.uoff - 1, f.uoff, f.uoff + 1, f.uoff + f.usize - 1, f.uoff + f.usize} {
				if m >= 0 && m <= len(whole) && !seen[m] {
					seen[m] = true
					marks = append(marks, m)
				}
			}
		}
		if len(x.frames) == 0 {
			marks = []int{0}
		}
		src, reads := bytes.NewReader(enc), 0
		for i, off := range marks {
			for _, end := range marks[i:] {
				n := end - off
				if n < 0 {
					continue
				}
				p, at, err := x.ReadRange(src, off, n)
				if err != nil {
					t.Fatalf("%s: [%d, +%d): %v", lay.name, off, n, err)
				}
				if got := p[off-at:][:n]; !bytes.Equal(got, whole[off:off+n]) {
					t.Fatalf("%s: [%d, +%d) differs from Unwrap's slice", lay.name, off, n)
				}
				reads++
			}
		}
		if reads == 0 {
			t.Fatalf("%s: no range was read", lay.name)
		}
		for _, bad := range [][2]int{{-1, 1}, {0, -1}, {0, len(whole) + 1}, {len(whole), 1}, {len(whole) + 1, 0}} {
			if _, _, err := x.ReadRange(src, bad[0], bad[1]); err == nil {
				t.Fatalf("%s: range [%d, +%d) of a %d-byte payload accepted", lay.name, bad[0], bad[1], len(whole))
			}
		}
	}
}

// TestReadRangeReadsItsFramesOnly: a range that a writer cut out inflates to
// itself and nothing else, and damage to any other frame is not its problem —
// while a range the damaged frame covers is refused, never served wrong.
func TestReadRangeReadsItsFramesOnly(t *testing.T) {
	payload := testPayload(5000)
	cuts := []int{700, 1900, 2000, 4100, 5000}
	enc := encodeCuts(t, payload, WriterOptions{FrameSize: 1 << 10, Workers: 1}, 333, cuts)
	x, err := Scan(enc)
	if err != nil {
		t.Fatal(err)
	}
	// 700 | 1024 + 176 | 100 | 1024 + 1024 + 52 | 900
	if len(x.frames) != 8 {
		t.Fatalf("fixture has %d frames, want 8", len(x.frames))
	}
	src := bytes.NewReader(enc)
	for i, start := 0, 0; i < len(cuts); start, i = cuts[i], i+1 {
		p, at, err := x.ReadRange(src, start, cuts[i]-start)
		if err != nil {
			t.Fatal(err)
		}
		if at != start || !bytes.Equal(p, payload[start:cuts[i]]) {
			t.Fatalf("record %d: read [%d, +%d), want exactly [%d, %d)", i, at, len(p), start, cuts[i])
		}
	}
	for k := range x.frames {
		fk := &x.frames[k]
		for pos := fk.off; pos < fk.boff+fk.csize; pos++ {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 0xff
			msrc := bytes.NewReader(mut)
			for j := range x.frames {
				fj := &x.frames[j]
				p, _, err := x.ReadRange(msrc, fj.uoff, fj.usize)
				switch {
				case err == nil && !bytes.Equal(p, payload[fj.uoff:][:fj.usize]):
					t.Fatalf("byte %d of frame %d flipped: frame %d read back wrong", pos, k, j)
				case j == k && err == nil:
					t.Fatalf("byte %d of frame %d flipped: the frame still reads", pos, k)
				case j != k && err != nil:
					t.Fatalf("byte %d of frame %d flipped: frame %d no longer reads: %v", pos, k, j, err)
				}
			}
		}
	}
}

// TestCutDeterministic: the container is a function of the payload, the frame
// size and the Cut positions — not of the worker count, and not of how the
// payload was chunked into Write calls. Cuts that fall where a frame ended
// anyway change nothing; any other cut does.
func TestCutDeterministic(t *testing.T) {
	payload := testPayload(40 << 10)
	cuts := []int{1, 5000, 5000, 8 << 10, 20000, 40 << 10}
	opt := WriterOptions{FrameSize: 8 << 10, Workers: 1}
	base := encodeCuts(t, payload, opt, 1000, cuts)
	for _, workers := range []int{1, 2, 4, 7} {
		for _, chunk := range []int{1, 333, 8 << 10, len(payload)} {
			got := encodeCuts(t, payload, WriterOptions{FrameSize: 8 << 10, Workers: workers}, chunk, cuts)
			if !bytes.Equal(got, base) {
				t.Fatalf("workers=%d chunk=%d: container differs (%d vs %d bytes)", workers, chunk, len(got), len(base))
			}
		}
	}
	plain := encode(t, payload, opt)
	if bytes.Equal(base, plain) {
		t.Fatal("cutting changed nothing")
	}
	if got := encodeCuts(t, payload, opt, 1000, append([]int{0}, every(8<<10, len(payload))...)); !bytes.Equal(got, plain) {
		t.Fatal("cuts at offset 0 and on frame boundaries changed the container")
	}
	if got := encodeCuts(t, payload, opt, 1000, []int{1, 5000, 8 << 10, 20001, 40 << 10}); bytes.Equal(got, base) {
		t.Fatal("moving a cut changed nothing")
	}
}
