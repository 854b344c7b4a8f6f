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
//  2. Worker identity: Unwrap inline and Unwrap striped over four lanes accept
//     exactly the same inputs and return identical bytes — worker count may
//     never change what a container unwraps to.
//  3. Range identity: on every container Unwrap accepts, the range reader
//     (Scan, then ReadRange of a range the input's own bytes choose) returns
//     that slice of Unwrap's payload. On one Unwrap refuses it never panics:
//     it errors, or — the damage lying in frames the range does not touch —
//     returns the range's exact length, the same at either worker count.
func FuzzDecodeBlocked(f *testing.F) {
	for _, s := range blockedSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte("CYPB"))
	f.Add([]byte("CYPB\x01\x80\x02\x00"))
	f.Fuzz(func(t *testing.T, in []byte) {
		inline, format, inlineErr := blockio.Unwrap(in, 1)
		striped, _, stripedErr := blockio.Unwrap(in, 4)
		if (inlineErr == nil) != (stripedErr == nil) {
			t.Fatalf("inline err=%v, striped err=%v", inlineErr, stripedErr)
		}
		if format == blockio.FormatBlocked {
			fuzzRange(t, in, inline, inlineErr == nil)
		}
		if inlineErr != nil {
			return
		}
		if !bytes.Equal(inline, striped) {
			t.Fatalf("inline and striped unwraps diverge: %d vs %d bytes", len(inline), len(striped))
		}
		m, err := DecodeSelectAuto(in, SelectAll(), 4)
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
	var reads [2][]byte
	var ok [2]bool
	for i, workers := range []int{1, 4} {
		p, at, err := x.ReadRange(bytes.NewReader(in), off, n, workers)
		if err != nil {
			if accepted {
				t.Fatalf("workers=%d: range [%d, +%d) of an accepted container: %v", workers, off, n, err)
			}
			continue
		}
		if off < at || off-at+n > len(p) {
			t.Fatalf("workers=%d: range [%d, +%d) answered with %d bytes from %d", workers, off, n, len(p), at)
		}
		reads[i], ok[i] = p[off-at:][:n], true
		if accepted && !bytes.Equal(reads[i], payload[off:off+n]) {
			t.Fatalf("workers=%d: range [%d, +%d) differs from Unwrap's slice", workers, off, n)
		}
	}
	if ok[0] != ok[1] || !bytes.Equal(reads[0], reads[1]) {
		t.Fatalf("range [%d, +%d): inline and striped reads diverge", off, n)
	}
}
