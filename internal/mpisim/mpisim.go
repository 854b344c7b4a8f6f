// Package mpisim is a deterministic MPI runtime simulator: it runs one
// goroutine per rank, matches point-to-point messages by (source, tag) with
// wildcard-source support, synchronizes collectives, tracks request handles
// for non-blocking operations, and advances a per-rank LogGP-based synthetic
// clock. A trace.Sink attached to each rank observes every communication
// event, playing the role of the paper's PMPI interposition layer.
//
// A run is a function of the program, the rank count and Params, not of the
// Go scheduler. A receive from a named source matches as soon as its message
// is there, in the sender's order. The choices that depend on arrival (a
// wildcard receive, Testany, and the requests Waitsome reaps after its first)
// wait until no rank runs, then take the smallest availNS, ties to the lowest
// source. No rank running and none able to choose is exactly a deadlock.
//
// The simulator substitutes for the real MPI library the paper's runtime
// intercepts. The compressors only consume the observed event stream, so
// fidelity of the *pattern* (matching, ordering, wildcard resolution,
// request completion) is what matters, not byte transport.
package mpisim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Params is the synthetic communication cost model (LogGP: latency L,
// per-message overhead o, per-byte gap G) plus a deterministic noise term.
type Params struct {
	LatencyNS    float64 // L: wire latency per message
	OverheadNS   float64 // o: CPU overhead per send/recv posting
	GapPerByteNS float64 // G: per-byte cost
	NoiseFrac    float64 // +-fraction of deterministic pseudo-noise per op
}

// DefaultParams models a QDR-InfiniBand-class network, the paper's testbed
// fabric: ~1.5us latency, ~3GB/s effective per-byte cost.
func DefaultParams() Params {
	return Params{LatencyNS: 1500, OverheadNS: 400, GapPerByteNS: 0.33, NoiseFrac: 0.02}
}

// InjectNS is the sender-side cost of injecting one message of size bytes
// (LogGP: o + G·size), before noise. It is shared by the runtime's p2pCost
// and the simmpi trace-driven engine so both sides of a prediction
// experiment price point-to-point traffic from one formula.
func (p Params) InjectNS(size int) float64 {
	return p.OverheadNS + p.GapPerByteNS*float64(size)
}

// ErrDeadlock is returned by Run when no rank can make progress.
var ErrDeadlock = errors.New("mpisim: deadlock: all active ranks blocked")

// message is an in-flight point-to-point payload descriptor.
type message struct {
	src, tag, size int
	availNS        float64 // earliest time the payload is visible at the receiver
}

// Runtime is one simulated MPI job.
type Runtime struct {
	n      int
	params Params
	ranks  []*Rank
	coll   collSync

	// running counts the ranks that are neither parked nor finished. A waker
	// counts the rank it wakes before that rank runs, so 0 means exactly that
	// no rank can move: every arrival-dependent choice is made then.
	running atomic.Int64
	next    int  // the rank quiesce offers the next choice to first
	dead    bool // quiesce found no rank able to move: parked ranks unwind
}

// Run executes body on n ranks and returns the maximum synthetic clock (ns)
// across ranks, i.e. the simulated job execution time. sinks may be nil or
// hold one Sink per rank. Run returns an error if any rank panics or the job
// deadlocks.
func Run(n int, params Params, sinks []trace.Sink, body func(r *Rank)) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("mpisim: need at least 1 rank, got %d", n)
	}
	if sinks != nil && len(sinks) != n {
		return 0, fmt.Errorf("mpisim: %d sinks for %d ranks", len(sinks), n)
	}
	rt := &Runtime{n: n, params: params, ranks: make([]*Rank, n)}
	rt.running.Store(int64(n))
	for i := range rt.ranks {
		r := &Rank{rt: rt, id: i, sink: trace.NopSink{}}
		if sinks != nil {
			r.sink = sinks[i]
		}
		r.cond.L = &r.mu
		rt.ranks[i] = r
	}

	var wg sync.WaitGroup
	finals := make([]float64, n)
	panics := make([]error, n)
	for _, r := range rt.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				p := recover()
				if p == errAborted {
					return // woken uncounted by quiesce's deadlock verdict
				}
				if p != nil {
					panics[r.id] = fmt.Errorf("mpisim: rank %d panicked: %v", r.id, p)
				}
				if rt.running.Add(-1) == 0 {
					rt.quiesce()
				}
			}()
			body(r)
			finals[r.id] = r.nowNS
		}()
	}
	wg.Wait()

	for _, err := range panics {
		if err != nil {
			return 0, err
		}
	}
	if rt.dead {
		return 0, ErrDeadlock
	}
	maxT := 0.0
	for _, t := range finals {
		maxT = math.Max(maxT, t)
	}
	return maxT, nil
}

var errAborted = errors.New("mpisim: aborted")

// quiesce runs when no rank is running. Parked ranks that wait to make an
// arrival-dependent choice take turns in rank order, round robin: only the
// first one that can choose is woken, and it chooses before any other rank
// runs. If ranks are parked and none can choose, the job is deadlocked, and
// every parked rank is woken, uncounted, to unwind with errAborted.
func (rt *Runtime) quiesce() {
	parked := false
	for i := range rt.n {
		r := rt.ranks[(rt.next+i)%rt.n]
		r.mu.Lock()
		if r.parked && (r.wait == forQuiet || r.wait == forAny && r.find(trace.AnySource, r.waitTag) >= 0) {
			rt.next = r.id + 1
			r.wake()
			r.mu.Unlock()
			return
		}
		parked = parked || r.parked
		r.mu.Unlock()
	}
	if !parked {
		return
	}
	rt.dead = true
	for _, r := range rt.ranks {
		r.mu.Lock()
		r.parked = false
		r.cond.Signal()
		r.mu.Unlock()
	}
}

// noise returns a deterministic pseudo-random factor in [1-f, 1+f] derived
// from (rank, seq) with a splitmix64 hash, keeping runs reproducible without
// math/rand global state.
func (p Params) noise(rank int, seq uint64) float64 {
	if p.NoiseFrac == 0 {
		return 1
	}
	x := uint64(rank+1)*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53) // [0,1)
	return 1 + p.NoiseFrac*(2*u-1)
}
