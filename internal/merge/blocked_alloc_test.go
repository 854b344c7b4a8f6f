package merge

import (
	"bytes"
	"testing"
)

// TestEncodeBlockedAllocs pins the container overhead of the blocked encoder.
// The plain encoder spends ~17 allocations on this fixture; wrapping it in a
// multi-frame CYPB container adds the writer, its frame accumulator, and the
// index slice — all writer-local and amortized, so the total must stay a
// small constant above the plain path, not scale with frame count.
func TestEncodeBlockedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	_, ctts, _ := collect(t, jacobiSrc, 16)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	step := func() {
		buf.Reset()
		// 256-byte frames cut this fixture into several frames, so a
		// per-frame allocation regression multiplies into the measurement.
		if _, err := m.EncodeBlockedFrames(&buf, 1, 256); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the flate and buffer pools
	allocs := testing.AllocsPerRun(100, step)
	// Measured at 26 allocs/op (plain Encode: 17). 40 leaves headroom while
	// still catching any per-frame or per-byte regression.
	if allocs > 40 {
		t.Errorf("EncodeBlocked allocates %.1f allocs/op, want <= 40", allocs)
	}
}

// TestDecodeBlockedAllocs pins the decode side: inline CYPB decode adds the
// frame index, the payload buffer and one lane's pooled inflater to the raw
// path's cost, and striping over two lanes adds only the fixed goroutine
// setup, not a per-frame cost.
func TestDecodeBlockedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	_, ctts, _ := collect(t, jacobiSrc, 16)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var blk bytes.Buffer
	if _, err := m.EncodeBlockedFrames(&blk, 1, 256); err != nil {
		t.Fatal(err)
	}
	data := blk.Bytes()
	for _, tc := range []struct {
		workers int
		budget  float64
	}{
		{1, 90},
		{2, 120},
	} {
		step := func() {
			if _, err := DecodeSelectAuto(data, SelectAll(), tc.workers); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm the pools
		allocs := testing.AllocsPerRun(100, step)
		if allocs > tc.budget {
			t.Errorf("DecodeSelectAuto(workers=%d) allocates %.1f allocs/op, want <= %.0f",
				tc.workers, allocs, tc.budget)
		}
	}
}
