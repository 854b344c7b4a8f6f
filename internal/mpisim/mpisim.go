// Package mpisim is a deterministic-enough MPI runtime simulator: it runs one
// goroutine per rank, matches point-to-point messages by (source, tag) with
// wildcard-source support, synchronizes collectives, tracks request handles
// for non-blocking operations, and advances a per-rank LogGP-based synthetic
// clock. A trace.Sink attached to each rank observes every communication
// event, playing the role of the paper's PMPI interposition layer.
//
// The simulator substitutes for the real MPI library the paper's runtime
// intercepts. The compressors only consume the observed event stream, so
// fidelity of the *pattern* (matching, ordering, wildcard nondeterminism,
// request completion) is what matters, not byte transport.
package mpisim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

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

// mailbox holds arrived-but-unconsumed messages for one destination rank.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message
}

// Runtime is one simulated MPI job.
type Runtime struct {
	n      int
	params Params
	boxes  []*mailbox
	coll   *collSync

	mu       sync.Mutex
	active   int
	blocked  int
	progress uint64
	failure  error
	done     chan struct{}
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
	rt := &Runtime{n: n, params: params, active: n, done: make(chan struct{})}
	rt.boxes = make([]*mailbox, n)
	for i := range rt.boxes {
		mb := &mailbox{}
		mb.cond = sync.NewCond(&mb.mu)
		rt.boxes[i] = mb
	}
	rt.coll = newCollSync(rt)

	var wg sync.WaitGroup
	finals := make([]float64, n)
	panics := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if r == errAborted {
						panics[id] = rt.failureErr()
					} else {
						panics[id] = fmt.Errorf("mpisim: rank %d panicked: %v", id, r)
						rt.abort(panics[id])
					}
				}
				rt.mu.Lock()
				rt.active--
				rt.progress++
				rt.mu.Unlock()
				rt.wakeAll()
			}()
			rank := &Rank{rt: rt, id: id}
			if sinks != nil {
				rank.sink = sinks[id]
			} else {
				rank.sink = trace.NopSink{}
			}
			body(rank)
			finals[id] = rank.nowNS
		}(i)
	}

	watchdogDone := make(chan struct{})
	go rt.watchdog(watchdogDone)
	wg.Wait()
	close(watchdogDone)

	for _, err := range panics {
		if err != nil {
			return 0, err
		}
	}
	if err := rt.failureErr(); err != nil {
		return 0, err
	}
	maxT := 0.0
	for _, t := range finals {
		maxT = math.Max(maxT, t)
	}
	return maxT, nil
}

var errAborted = errors.New("mpisim: aborted")

func (rt *Runtime) failureErr() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.failure
}

func (rt *Runtime) abort(err error) {
	rt.mu.Lock()
	if rt.failure == nil {
		rt.failure = err
	}
	rt.mu.Unlock()
	rt.wakeAll()
}

func (rt *Runtime) wakeAll() {
	for _, mb := range rt.boxes {
		mb.cond.Broadcast()
	}
	rt.coll.cond.Broadcast()
}

// watchdog declares deadlock when every active rank stays blocked with no
// progress across two consecutive samples.
func (rt *Runtime) watchdog(done chan struct{}) {
	var lastProgress uint64
	var stuck int
	for {
		select {
		case <-done:
			return
		case <-time.After(25 * time.Millisecond):
		}
		rt.mu.Lock()
		allBlocked := rt.active > 0 && rt.blocked >= rt.active
		progress := rt.progress
		rt.mu.Unlock()
		if allBlocked && progress == lastProgress {
			stuck++
			if stuck >= 3 {
				rt.abort(ErrDeadlock)
				return
			}
		} else {
			stuck = 0
		}
		lastProgress = progress
	}
}

// markBlocked adjusts the blocked-rank count around condition waits.
func (rt *Runtime) markBlocked(delta int) {
	rt.mu.Lock()
	rt.blocked += delta
	if delta < 0 {
		rt.progress++
	}
	rt.mu.Unlock()
}

func (rt *Runtime) noteProgress() {
	rt.mu.Lock()
	rt.progress++
	rt.mu.Unlock()
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
