package simmpi

import (
	"testing"

	"repro/internal/mpisim"
	"repro/internal/trace"
)

// TestSimulateAllocsSteadyState pins the engine's allocation shape: all
// allocation happens at setup (ranks, match tables) or scales with peak
// state (match-queue capacity, collective groups), and the steady-state
// sweep loop allocates nothing. The fixtures are chain halo exchanges: the
// per-iteration waitall keeps neighbor drift — and with it match-queue
// depth — bounded by a constant, so 4x more iterations must leave
// allocs/run essentially unchanged. The decoded fixture is the same shape
// served through encode/decode: there the bound also covers each rank's
// pending-receive list, which stays at the two outstanding receives only
// while decoded completions find their posters.
func TestSimulateAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, fx := range []traceFixture{{"chain", chainTrace}, decodedFixture(t)} {
		t.Run(fx.name, func(t *testing.T) { allocsSteadyState(t, fx.gen) })
	}
}

func allocsSteadyState(t *testing.T, gen func(n, iters int) [][]trace.Event) {
	params := mpisim.DefaultParams()
	measure := func(seqs [][]trace.Event) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Simulate(seqs, params); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 80 iterations is past the warm-up knee (queue buffers and scratch at
	// full capacity); from there, 4x more work may only move the count by
	// the measurement floor (a few GC-cycle allocations), and the absolute
	// ceiling rules out even 0.05 allocs/event across the run's ~100k events.
	warm := measure(gen(64, 80))
	long := measure(gen(64, 320))
	if long > warm+64 {
		t.Errorf("4x work moved allocs/run from %.0f to %.0f; sweep loop is allocating", warm, long)
	}
	if long > 2048 {
		t.Errorf("allocs/run %.0f exceeds budget 2048", long)
	}
}
