package merge

import (
	"bytes"
	"testing"

	"repro/internal/blockio"
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
func FuzzDecodeBlocked(f *testing.F) {
	for _, s := range blockedSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte("CYPB"))
	f.Add([]byte("CYPB\x01\x80\x02\x00"))
	f.Fuzz(func(t *testing.T, in []byte) {
		inline, _, inlineErr := blockio.Unwrap(in, 1)
		striped, _, stripedErr := blockio.Unwrap(in, 4)
		if (inlineErr == nil) != (stripedErr == nil) {
			t.Fatalf("inline err=%v, striped err=%v", inlineErr, stripedErr)
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
