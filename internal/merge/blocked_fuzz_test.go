package merge

import (
	"bytes"
	"testing"

	"repro/internal/blockio"
	"repro/internal/fp"
)

// blockedSeeds wraps the fuzz fixtures in CYPB containers at a small frame
// size (so every fixture spans several frames), plus deliberately damaged
// variants: a truncated container, a corrupted frame body, and a mangled
// footer — the classes of damage the container checks must turn into errors.
func blockedSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, raw := range fuzzSeeds(f) {
		m, err := Decode(bytes.NewReader(raw))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.EncodeBlockedFrames(&buf, 2, 128); err != nil {
			f.Fatal(err)
		}
		enc := buf.Bytes()
		seeds = append(seeds, enc)
		seeds = append(seeds, enc[:len(enc)*2/3]) // truncated mid-body
		body := append([]byte(nil), enc...)
		body[len(body)/2] ^= 0x41 // corrupted frame byte
		seeds = append(seeds, body)
		foot := append([]byte(nil), enc...)
		foot[len(foot)-7] ^= 0x41 // mangled footer/trailer
		seeds = append(seeds, foot)
	}
	return seeds
}

// FuzzDecodeBlocked feeds arbitrary bytes to the one container reader and
// the decoder behind it, and checks:
//
//  1. Robustness: blockio.Unwrap and the decode never panic; malformed
//     containers (truncated frames, corrupted bodies, mangled footers) return
//     an error.
//  2. Range identity: on every container Unwrap accepts, the range reader
//     (Scan, then ReadRange of a range the input's own bytes choose) returns
//     that slice of Unwrap's payload. On one Unwrap refuses it never panics:
//     it errors, or — the damage lying in frames the range does not touch —
//     returns the range's exact length.
func FuzzDecodeBlocked(f *testing.F) {
	for _, s := range blockedSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte("CYPB"))
	f.Add([]byte("CYPB\x01\x80\x02\x00"))
	f.Fuzz(func(t *testing.T, in []byte) {
		payload, format, err := blockio.Unwrap(in)
		if format == blockio.FormatBlocked {
			fuzzRange(t, in, payload, err == nil)
		}
		if err != nil {
			return
		}
		m, err := DecodeSelectAuto(in, SelectAll(), 0)
		if err != nil {
			return
		}
		var re bytes.Buffer
		if _, err := m.Encode(&re); err != nil {
			t.Fatalf("re-encode of decoded container failed: %v", err)
		}
	})
}

// fuzzRange is FuzzDecodeBlocked's range leg over one CYPB input: payload is
// what Unwrap returned for it, accepted whether Unwrap did.
func fuzzRange(t *testing.T, in, payload []byte, accepted bool) {
	x, err := blockio.Scan(in)
	if err != nil {
		if accepted {
			t.Fatalf("Unwrap accepts a container Scan refuses: %v", err)
		}
		return
	}
	// The range is the input's to choose: two hashes of it, folded into
	// [0, Len] and into what is left from there.
	h := fp.New().Bytes(in)
	off := int(uint64(h) % uint64(x.Len()+1))
	n := int(uint64(h.Bytes(in[len(in)/2:])) % uint64(x.Len()-off+1))
	p, at, err := x.ReadRange(bytes.NewReader(in), off, n)
	if err != nil {
		if accepted {
			t.Fatalf("range [%d, +%d) of an accepted container: %v", off, n, err)
		}
		return
	}
	if off < at || off-at+n > len(p) {
		t.Fatalf("range [%d, +%d) answered with %d bytes from %d", off, n, len(p), at)
	}
	if accepted && !bytes.Equal(p[off-at:][:n], payload[off:off+n]) {
		t.Fatalf("range [%d, +%d) differs from Unwrap's slice", off, n)
	}
}
