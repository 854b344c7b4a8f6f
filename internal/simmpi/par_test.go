package simmpi

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/trace"
)

// ringTrace builds n synthetic rank sequences for a blocking wraparound ring:
// every iteration sends to the right neighbor and receives from the left,
// with rank-varying compute and sizes, an allreduce every fourth iteration,
// and a closing finalize. Every receive has a matching send, so the trace
// simulates cleanly.
func ringTrace(n, iters int) [][]trace.Event {
	seqs := make([][]trace.Event, n)
	for r := 0; r < n; r++ {
		evs := []trace.Event{{Op: trace.OpInit, Peer: trace.NoPeer, ComputeNS: 50 + float64(r%7)*10}}
		for k := 0; k < iters; k++ {
			tag := k % 2
			size := 1024 + 512*(k%3)
			evs = append(evs,
				trace.Event{Op: trace.OpSend, Peer: (r + 1) % n, Tag: tag, Size: size,
					ComputeNS: float64(40 + (r*13)%90)},
				trace.Event{Op: trace.OpRecv, Peer: (r + n - 1) % n, Tag: tag, Size: size,
					ComputeNS: float64(20 + (k*7)%30)})
			if k%4 == 3 {
				evs = append(evs, trace.Event{Op: trace.OpAllreduce, Peer: trace.NoPeer, Size: 8,
					ComputeNS: 30})
			}
		}
		evs = append(evs, trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer})
		seqs[r] = evs
	}
	return seqs
}

// chainTrace builds an open-chain non-blocking halo exchange (the jacobi
// shape): each iteration posts isends and irecvs toward both neighbors and
// completes them with one waitall whose Reqs reference the poster GIDs.
func chainTrace(n, iters int) [][]trace.Event {
	const (
		gidSendL int32 = 100
		gidSendR int32 = 101
		gidRecvL int32 = 102
		gidRecvR int32 = 103
	)
	seqs := make([][]trace.Event, n)
	for r := 0; r < n; r++ {
		evs := []trace.Event{{Op: trace.OpInit, Peer: trace.NoPeer, ComputeNS: 25}}
		for k := 0; k < iters; k++ {
			var reqs []int32
			if r > 0 {
				evs = append(evs, trace.Event{Op: trace.OpIsend, Peer: r - 1, Tag: 1, Size: 2048,
					GID: gidSendL, ComputeNS: float64(30 + (r*11)%60)})
				reqs = append(reqs, gidSendL)
			}
			if r < n-1 {
				evs = append(evs, trace.Event{Op: trace.OpIsend, Peer: r + 1, Tag: 2, Size: 2048,
					GID: gidSendR, ComputeNS: 15})
				reqs = append(reqs, gidSendR)
			}
			if r > 0 {
				evs = append(evs, trace.Event{Op: trace.OpIrecv, Peer: r - 1, Tag: 2, Size: 2048,
					GID: gidRecvL, ComputeNS: 5})
				reqs = append(reqs, gidRecvL)
			}
			if r < n-1 {
				evs = append(evs, trace.Event{Op: trace.OpIrecv, Peer: r + 1, Tag: 1, Size: 2048,
					GID: gidRecvR, ComputeNS: 5})
				reqs = append(reqs, gidRecvR)
			}
			evs = append(evs, trace.Event{Op: trace.OpWaitall, Peer: trace.NoPeer, Reqs: reqs,
				ComputeNS: float64(10 + (k*3)%40)})
		}
		evs = append(evs, trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer})
		seqs[r] = evs
	}
	return seqs
}

// shiftTrace builds a ring whose partner distance shifts every iteration
// (1, 2, 3, 1, ...), with a barrier midway — deeper match-table fan-out than
// the plain ring, still send-before-recv so it cannot deadlock.
func shiftTrace(n, iters int) [][]trace.Event {
	seqs := make([][]trace.Event, n)
	for r := 0; r < n; r++ {
		evs := []trace.Event{{Op: trace.OpInit, Peer: trace.NoPeer}}
		for k := 0; k < iters; k++ {
			s := 1 + k%3
			evs = append(evs,
				trace.Event{Op: trace.OpSend, Peer: (r + s) % n, Tag: 3, Size: 256 * (1 + k%4),
					ComputeNS: float64(60 + (r*29)%120)},
				trace.Event{Op: trace.OpRecv, Peer: (r + n - s) % n, Tag: 3, Size: 256 * (1 + k%4),
					ComputeNS: 10})
			if k == iters/2 {
				evs = append(evs, trace.Event{Op: trace.OpBarrier, Peer: trace.NoPeer})
			}
		}
		evs = append(evs, trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer})
		seqs[r] = evs
	}
	return seqs
}

type traceFixture struct {
	name string
	gen  func(n, iters int) [][]trace.Event
}

// decodedFixture is a real program's trace served through encode/decode
// (the haloSrc exchange), so file-served waits block on their receives.
func decodedFixture(t testing.TB) traceFixture {
	return traceFixture{"decoded", func(n, iters int) [][]trace.Event {
		return decodedSeqs(t, haloSrc(iters), n)
	}}
}

var parFixtures = []traceFixture{
	{"ring", ringTrace},
	{"chain", chainTrace},
	{"shift", shiftTrace},
}

// TestParallelEquivalence is the tentpole's equivalence gate: the parallel
// engine must produce a bit-identical Result (including per-rank finish
// times) at every worker count, on every fixture, at 7/64/256/1024 ranks.
func TestParallelEquivalence(t *testing.T) {
	params := mpisim.DefaultParams()
	fixtures := append([]traceFixture{decodedFixture(t)}, parFixtures...)
	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, n := range []int{7, 64, 256, 1024} {
		iters := 12
		if n >= 1024 {
			iters = 6
		}
		for _, fx := range fixtures {
			t.Run(fmt.Sprintf("%s/n%d", fx.name, n), func(t *testing.T) {
				seqs := fx.gen(n, iters)
				want, err := Simulate(seqs, params)
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				for _, w := range workerCounts {
					got, err := SimulateStreamPar(sliceSources(seqs), params, w)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("workers=%d: result differs from sequential\nwant total %v\ngot total  %v",
							w, want.TotalNS, got.TotalNS)
					}
				}
			})
		}
	}
}

// TestParallelZeroCostModel pins the degenerate-lookahead fallback: with an
// all-zero cost model the window span is zero, and the parallel driver must
// fall back to unbounded epochs rather than spin without progress.
func TestParallelZeroCostModel(t *testing.T) {
	seqs := ringTrace(16, 8)
	want, err := Simulate(seqs, mpisim.Params{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	got, err := SimulateStreamPar(sliceSources(seqs), mpisim.Params{}, 4)
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("zero-cost model diverges: %v vs %v", want.TotalNS, got.TotalNS)
	}
}

// TestParallelErrorEquivalence checks that error *presence* is schedule-
// independent: a stall or collective mismatch is reported at every worker
// count (the message may name a different rank).
func TestParallelErrorEquivalence(t *testing.T) {
	params := mpisim.DefaultParams()

	// An unmatched receive before rank 3's finalize: rank 3 never reaches
	// the final collective, so every engine must stall.
	stallSeqs := ringTrace(8, 4)
	fin := len(stallSeqs[3]) - 1
	stallSeqs[3] = append(stallSeqs[3][:fin:fin],
		trace.Event{Op: trace.OpRecv, Peer: 5, Tag: 9, Size: 64},
		trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer})

	// Rank 2 disagrees on the allreduce payload size.
	mismatchSeqs := ringTrace(8, 4)
	for i := range mismatchSeqs[2] {
		if mismatchSeqs[2][i].Op == trace.OpAllreduce {
			mismatchSeqs[2][i].Size = 16
			break
		}
	}

	for _, w := range []int{1, 2, 4} {
		if _, err := SimulateStreamPar(sliceSources(stallSeqs), params, w); err == nil {
			t.Errorf("workers=%d: unmatched recv did not stall", w)
		} else if !strings.Contains(err.Error(), "stalled") {
			t.Errorf("workers=%d: want stall error, got %v", w, err)
		}
		if _, err := SimulateStreamPar(sliceSources(mismatchSeqs), params, w); err == nil {
			t.Errorf("workers=%d: collective mismatch not detected", w)
		} else if !strings.Contains(err.Error(), "collective mismatch") {
			t.Errorf("workers=%d: want mismatch error, got %v", w, err)
		}
	}
}

// TestParallelEmptyRankStalls mirrors the sequential engine's historical
// contract under the parallel driver: a source that yields no events at all
// is a stall, not a silently completed rank.
func TestParallelEmptyRankStalls(t *testing.T) {
	seqs := ringTrace(6, 4)
	seqs[4] = nil
	if _, err := SimulateStreamPar(sliceSources(seqs), mpisim.DefaultParams(), 4); err == nil {
		t.Fatal("empty rank did not stall under the parallel driver")
	}
}
