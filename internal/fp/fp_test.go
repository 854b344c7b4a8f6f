package fp

import (
	"math/rand"
	"testing"
)

// TestStreamMatchesBytes: folding a buffer through a Stream in pieces gives
// the Bytes fold of the whole buffer, for random lengths and random split
// points, splits inside a word and empty pieces included.
func TestStreamMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		b := make([]byte, rng.Intn(80))
		rng.Read(b)
		want := New().Bytes(b)
		s := NewStream()
		for rest := b; ; {
			k := rng.Intn(len(rest) + 1)
			if rng.Intn(4) == 0 {
				k = min(k, 3) // short pieces: every offset inside a word
			}
			s.Write(rest[:k])
			rest = rest[k:]
			if len(rest) == 0 {
				break
			}
		}
		if got := s.Sum(); got != want {
			t.Fatalf("len %d: stream %x, Bytes %x", len(b), got, want)
		}
		if got := s.Sum(); got != want {
			t.Fatal("Sum changed the stream")
		}
	}
	if s := NewStream(); s.Sum() != New().Bytes(nil) {
		t.Fatal("empty stream differs from Bytes(nil)")
	}
}
