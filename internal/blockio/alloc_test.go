package blockio

import (
	"bytes"
	"testing"
)

// TestFrameEncodeAllocs pins the steady-state allocation cost of the inline
// frame path: once the accumulator, the inline job, and the pooled flate
// writer are warm, pushing another frame through should stay within a tiny
// budget (index append amortization and pool slack).
func TestFrameEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	payload := testPayload(4 << 10)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{FrameSize: 4 << 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the accumulator, inline job buffers, and index slice.
	for i := 0; i < 8; i++ {
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	const budget = 4
	if avg > budget {
		t.Fatalf("steady-state frame encode allocs = %.1f, budget %d", avg, budget)
	}
}

// TestFrameDecodeAllocs pins the allocation cost of Unwrap on a container:
// one index, one payload buffer and, per lane, its reusable reader state and
// pooled inflater — inline decode must stay within a few allocations per
// frame, and striping adds only the per-lane goroutine setup.
func TestFrameDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	payload := testPayload(64 << 10)
	enc := encode(t, payload, WriterOptions{FrameSize: 4 << 10, Workers: 1})
	nFrames := 16.0
	for _, workers := range []int{0, 2} {
		avg := testing.AllocsPerRun(20, func() {
			got, _, err := Unwrap(enc, workers)
			if err != nil || len(got) != len(payload) {
				t.Fatalf("Unwrap: %d bytes, %v", len(got), err)
			}
		})
		perFrame := avg / nFrames
		budget := 4.0
		if workers > 0 {
			budget = 16.0
		}
		if perFrame > budget {
			t.Fatalf("workers=%d: decode allocs/frame = %.1f (%.0f total), budget %.0f",
				workers, perFrame, avg, budget)
		}
	}
}
