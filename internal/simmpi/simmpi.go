// Package simmpi is a trace-driven LogGP performance simulator, the stand-in
// for SIM-MPI in the paper's Section V / Figure 14 pipeline: decompressed
// CYPRESS traces (communication sequence + per-record sequential computation
// time) plus network parameters yield a predicted execution time.
//
// The simulator is a conservative discrete-event engine: each rank advances a
// local clock through its event sequence; point-to-point completions couple
// to the matching sender's injection time plus latency, and collectives
// join all ranks. Every cost comes from the cost table in package mpisim,
// the one the live runtime charges. Point-to-point matches resolve through
// per-destination match tables keyed by (source, tag). One sequential sweep
// drives the engine — see DESIGN.md "Simulation".
package simmpi

import (
	"fmt"
	"math"

	"repro/internal/mpisim"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/trace"
)

// Result is the simulation outcome.
type Result struct {
	// TotalNS is the predicted job execution time (max over ranks).
	TotalNS float64
	// PerRankNS is each rank's final clock.
	PerRankNS []float64
	// CommNS is each rank's accumulated communication time.
	CommNS []float64
	// ComputeNS is each rank's accumulated computation time.
	ComputeNS []float64
}

// CommFraction returns the job-wide communication time share.
func (r Result) CommFraction() float64 {
	var comm, tot float64
	for i := range r.PerRankNS {
		comm += r.CommNS[i]
		tot += r.PerRankNS[i]
	}
	if tot == 0 {
		return 0
	}
	return comm / tot
}

// pendingRecv is one posted, not yet completed Irecv: the poster's call-site
// GID (what a completion's Reqs name) and the match chain it will pop.
type pendingRecv struct {
	gid int32
	q   *msgQueue
}

type simRank struct {
	src     EventSource
	cur     trace.Event
	have    bool // cur holds a blocked, unprocessed event
	started bool // src yielded at least one event
	done    bool // src exhausted after at least one event
	idx     int  // events processed (for diagnostics)
	clock   float64
	comm    float64
	compute float64
	pending []pendingRecv
	pendMax int // peak len(pending); bounded by the program's outstanding receives
	collIdx int
	inColl  bool

	// Completion scratch, reused across events so the steady-state loop is
	// allocation-free once warm (the historical engine built two maps per
	// completion op).
	toComplete []int
	used       []bool
	avails     []float64
}

type collGroup struct {
	op      trace.Op
	size    int
	arrived int
	maxT    float64
	done    bool
	finish  float64
}

// EventSource is a pull iterator over one rank's replayed event sequence, the
// streaming alternative to materializing a full []trace.Event per rank. The
// pointer returned by Next is only read before the following Next call, so
// implementations may reuse one event buffer (replay.Cursor does).
type EventSource interface {
	// Next returns the next event, or false when the sequence is exhausted.
	Next() (*trace.Event, bool)
}

// sliceSource adapts a materialized sequence to EventSource.
type sliceSource struct {
	evs []trace.Event
	i   int
}

func (s *sliceSource) Next() (*trace.Event, bool) {
	if s.i >= len(s.evs) {
		return nil, false
	}
	e := &s.evs[s.i]
	s.i++
	return e, true
}

// sliceSources wraps materialized per-rank sequences as event sources.
func sliceSources(seqs [][]trace.Event) []EventSource {
	srcs := make([]EventSource, len(seqs))
	for i := range seqs {
		srcs[i] = &sliceSource{evs: seqs[i]}
	}
	return srcs
}

// Simulate predicts execution for the given materialized per-rank event
// sequences. It is the slice-fed entry tests use as the oracle; production
// callers stream through SimulateStreamPar. Both run one engine, so their
// results are identical for identical sequences.
func Simulate(seqs [][]trace.Event, params mpisim.Params) (Result, error) {
	return SimulateStreamPar(sliceSources(seqs), params, 1)
}

// SimulateStreamPar predicts execution for per-rank event streams pulled from
// iterators. Peak memory is O(ranks) cursor state plus the engine's in-flight
// message queues instead of O(total events): each rank's events are consumed
// as they are pulled, one at a time. The event an iterator yields is held by
// value across blocked retries, so sources may reuse their buffers.
//
// workers is ignored: the simulation is one sequential sweep on the calling
// goroutine. The parameter stays so existing callers keep compiling.
func SimulateStreamPar(srcs []EventSource, params mpisim.Params, workers int) (Result, error) {
	if len(srcs) == 0 {
		return Result{}, fmt.Errorf("simmpi: no ranks")
	}
	tsp := obs.AttachedRecorder().Begin(ftrace.CatSim, ftrace.NameSimulate, 0)
	en := newEngine(srcs, params)
	events, err := en.run()
	tsp.End(int64(len(srcs)), events)
	if err != nil {
		return Result{}, err
	}
	return en.result(), nil
}

// engine is the simulation state: per-rank cursors and clocks, one match
// table per destination rank, and the collective groups in occurrence order.
type engine struct {
	params mpisim.Params
	n      int
	ranks  []simRank
	shards []matchShard
	colls  []*collGroup
}

func newEngine(srcs []EventSource, params mpisim.Params) *engine {
	en := &engine{params: params, n: len(srcs)}
	en.ranks = make([]simRank, en.n)
	for i := range en.ranks {
		en.ranks[i].src = srcs[i]
	}
	en.shards = make([]matchShard, en.n)
	for i := range en.shards {
		en.shards[i].q = map[matchKey]*msgQueue{}
	}
	return en
}

// run sweeps every rank in order, each processing events until it blocks,
// until all sources are drained or a sweep makes no progress, and returns
// how many events it processed. Each sweep is reported as one sim window
// span and counted in sim_windows.
func (en *engine) run() (events int64, err error) {
	for {
		wsp := obs.AttachedRecorder().Begin(ftrace.CatSim, ftrace.NameWindow, 0)
		progressed := 0
		remaining := 0
		for rid := range en.ranks {
			p, err := en.advance(rid)
			if err != nil {
				return events, err
			}
			progressed += p
			if !en.ranks[rid].done {
				remaining++
			}
		}
		wsp.End(int64(len(en.ranks)), int64(progressed))
		if sink := obs.Attached(); sink.Enabled() {
			sink.Inc(obs.SimWindows)
			sink.Observe(obs.HistSimWindowEvents, int64(progressed))
		}
		events += int64(progressed)
		if remaining == 0 {
			return events, nil
		}
		if progressed == 0 {
			return events, fmt.Errorf("simmpi: simulation stalled (mismatched trace?): %s", stallState(en.ranks))
		}
	}
}

// advance drains rank rid: it processes events until the rank blocks or its
// source is exhausted, and returns the number of events processed.
func (en *engine) advance(rid int) (int, error) {
	r := &en.ranks[rid]
	processed := 0
	for {
		// Events are processed straight off the source's pointer and copied
		// into r.cur only when they block: the common case (event processes
		// first try) never pays the struct copy.
		var e *trace.Event
		if r.have {
			e = &r.cur
		} else {
			if r.done {
				break
			}
			ev, more := r.src.Next()
			if !more {
				if r.started {
					r.done = true
				}
				// else: source empty from the start — mirror the historical
				// engine, which never marked zero-event ranks done and
				// reported a stall instead.
				break
			}
			r.started = true
			e = ev
		}
		ok, err := en.step(r, rid, e)
		if err != nil {
			return processed, err
		}
		if !ok {
			if !r.have {
				r.cur = *e
				r.have = true
				obs.Attached().Inc(obs.SimBlockedCopies)
			}
			break
		}
		r.have = false
		r.idx++
		processed++
	}
	return processed, nil
}

// result assembles the Result from the final per-rank state.
func (en *engine) result() Result {
	res := Result{
		PerRankNS: make([]float64, en.n),
		CommNS:    make([]float64, en.n),
		ComputeNS: make([]float64, en.n),
	}
	// Every source has drained, so a receive still pending was never waited
	// for. mpisim does not forbid abandoning a request, so that is accounting,
	// not an error — but a pending list that outgrows the program's
	// outstanding requests means completions are not finding their posters.
	var processed, unmatched int64
	pendPeak := 0
	for i := range en.ranks {
		r := &en.ranks[i]
		res.PerRankNS[i] = r.clock
		res.CommNS[i] = r.comm
		res.ComputeNS[i] = r.compute
		res.TotalNS = math.Max(res.TotalNS, r.clock)
		processed += int64(r.idx)
		unmatched += int64(len(r.pending))
		pendPeak = max(pendPeak, r.pendMax)
	}
	sink := obs.Attached()
	sink.Add(obs.SimEventsProcessed, processed)
	sink.Add(obs.SimUnmatchedRecvs, unmatched)
	sink.SetMax(obs.SimPendingPeak, int64(pendPeak))
	return res
}

// stallState names the rank a stall is reported against. A rank whose source
// never yielded comes first: its peers block on it, so the first blocked rank
// is usually a victim rather than the cause.
func stallState(ranks []simRank) string {
	for i := range ranks {
		if !ranks[i].started {
			return fmt.Sprintf("rank %d yielded no events", i)
		}
	}
	for i := range ranks {
		if ranks[i].have {
			return fmt.Sprintf("rank %d stuck at event %d (%v)", i, ranks[i].idx, ranks[i].cur.Op)
		}
	}
	return "all done"
}

// completeRecvs finds the pending receives completion e names by poster GID
// (a GID with no pending receive is a completed send: no wait). If each has
// a queued message on its chain, it pops them all in completion order into
// r.avails, drops them from r.pending and returns true; otherwise it changes
// nothing.
func completeRecvs(r *simRank, e *trace.Event) bool {
	r.toComplete = r.toComplete[:0]
	r.used = r.used[:0]
	for range r.pending {
		r.used = append(r.used, false)
	}
	for _, gid := range e.Reqs {
		for i := range r.pending {
			if !r.used[i] && r.pending[i].gid == gid {
				r.toComplete = append(r.toComplete, i)
				r.used[i] = true
				break
			}
		}
	}
	// Entry i needs its chain to hold every earlier same-chain completion
	// plus itself. Pending lists are short, so the quadratic scan beats the
	// historical per-event count map.
	for i, pi := range r.toComplete {
		q := r.pending[pi].q
		need := 1
		for _, pj := range r.toComplete[:i] {
			if r.pending[pj].q == q {
				need++
			}
		}
		if q.len() < need {
			return false
		}
	}
	r.avails = r.avails[:0]
	for _, pi := range r.toComplete {
		r.avails = append(r.avails, r.pending[pi].q.pop())
	}
	if len(r.toComplete) > 0 {
		kept := r.pending[:0]
		for i := range r.pending {
			if !r.used[i] {
				kept = append(kept, r.pending[i])
			}
		}
		r.pending = kept
	}
	return true
}

// step attempts to process one event; it returns false when the event must
// wait for progress elsewhere. Every clock/comm/compute update is a function
// of rank-local state plus values read from the rank's own match table or
// collective group, priced by the cost table at noise 1.
func (en *engine) step(r *simRank, rid int, e *trace.Event) (bool, error) {
	p := en.params
	switch {
	case e.Op == trace.OpSend || e.Op == trace.OpIsend:
		// Isend differs only in request bookkeeping; sends complete locally.
		t0 := r.enter(e)
		r.clock += p.InjectNS(e.Size, 1)
		depth := en.shards[e.Peer].push(mkKey(rid, e.Tag), p.ArrivalNS(r.clock))
		if sink := obs.Attached(); sink.Enabled() {
			sink.Observe(obs.HistSimQueueDepth, int64(depth))
			sink.SetMax(obs.SimMatchDepthPeak, int64(depth))
		}
		r.comm += r.clock - t0
	case e.Op == trace.OpIrecv:
		t0 := r.enter(e)
		r.clock += p.IrecvPostNS(1)
		r.pending = append(r.pending, pendingRecv{gid: e.GID, q: en.shards[rid].chain(mkKey(e.Peer, e.Tag))})
		r.pendMax = max(r.pendMax, len(r.pending))
		r.comm += r.clock - t0
	case e.Op == trace.OpRecv:
		avail, ok := en.shards[rid].tryPop(mkKey(e.Peer, e.Tag))
		if !ok {
			return false, nil // matching send not simulated yet
		}
		t0 := r.enter(e)
		r.clock = p.RecvDoneNS(r.clock, avail, 1)
		r.comm += r.clock - t0
	case e.Op.IsCompletion():
		if !completeRecvs(r, e) {
			return false, nil // a named message not sent yet
		}
		t0 := r.enter(e)
		for _, avail := range r.avails {
			r.clock = p.WaitDoneNS(r.clock, avail)
		}
		r.comm += r.clock - t0
	case e.Op.IsCollective() || e.Op == trace.OpFinalize:
		return en.stepColl(r, rid, e)
	default:
		r.enter(e) // no timing semantics beyond the compute before it
	}
	return true, nil
}

// enter charges the compute time that precedes e's call and returns the clock
// at which the call starts.
func (r *simRank) enter(e *trace.Event) float64 {
	r.clock += e.ComputeNS
	r.compute += e.ComputeNS
	return r.clock
}

// stepColl folds one rank's arrival into its next collective group. The
// group's entry time is the max over arrival clocks; the group finishes once
// every rank has arrived. A rank whose op or size disagrees with the first
// arrival's is a collective mismatch.
func (en *engine) stepColl(r *simRank, rid int, e *trace.Event) (bool, error) {
	g := en.coll(r.collIdx)
	if !r.inColl {
		r.enter(e)
		if g.arrived == 0 {
			g.op, g.size = e.Op, e.Size
		} else if g.op != e.Op || g.size != e.Size {
			return false, fmt.Errorf("simmpi: collective mismatch at occurrence %d: rank %d %v(%d) vs %v(%d)",
				r.collIdx, rid, e.Op, e.Size, g.op, g.size)
		}
		g.arrived++
		g.maxT = math.Max(g.maxT, r.clock)
		r.inColl = true
		if g.arrived == en.n {
			g.finish = g.maxT + en.params.CollectiveCostNS(en.n, e.Op, e.Size)
			g.done = true
		}
	}
	if !g.done {
		return false, nil
	}
	r.comm += g.finish - r.clock
	r.clock = g.finish
	r.collIdx++
	r.inColl = false
	return true, nil
}

// coll lazily grows the collective table to hold index idx.
func (en *engine) coll(idx int) *collGroup {
	for len(en.colls) <= idx {
		en.colls = append(en.colls, &collGroup{})
	}
	return en.colls[idx]
}
