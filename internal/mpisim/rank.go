package mpisim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/trace"
)

// Rank is the per-process MPI handle passed to the job body.
type Rank struct {
	rt   *Runtime
	id   int
	sink trace.Sink

	nowNS     float64 // synthetic local clock
	computeNS float64 // compute time since the previous MPI event
	seq       uint64  // per-rank op sequence, feeds deterministic noise

	nextReq int32
	pending []*Request

	// mu guards the arrived messages and the parking state; a parked rank
	// sleeps on cond until a waker clears parked.
	mu      sync.Mutex
	cond    sync.Cond
	msgs    []message // arrived, unconsumed messages in arrival order
	parked  bool
	wait    waitKind
	waitSrc int // forPeer, forAny: the receive's source and tag
	waitTag int
}

// waitKind says what a parked rank waits for, and so who wakes it.
type waitKind uint8

const (
	forPeer  waitKind = iota // a message from (waitSrc, waitTag): its sender
	forAny                   // any message with waitTag: quiesce, once one is there
	forQuiet                 // no rank running: quiesce
	forColl                  // the rest of the collective: its last arrival
)

// Request is a non-blocking operation handle.
type Request struct {
	ID       int32
	isSend   bool
	src      int // requested source (possibly trace.AnySource) for receives
	tag      int
	size     int
	done     bool
	matched  int     // resolved source for receives, -1 for sends
	availNS  float64 // completion availability time
	wildcard bool
}

// ID returns the rank id.
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the world communicator.
func (r *Rank) Size() int { return r.rt.n }

// Sink returns the attached tracer (used by the interpreter to emit
// structure markers alongside the runtime's communication events).
func (r *Rank) Sink() trace.Sink { return r.sink }

// Compute advances the local clock by ns of computation.
func (r *Rank) Compute(ns float64) {
	if ns < 0 {
		panic(fmt.Sprintf("mpisim: negative compute time %f", ns))
	}
	r.seq++
	d := ns * r.rt.params.noise(r.id, r.seq)
	r.nowNS += d
	r.computeNS += d
}

func (r *Rank) checkPeer(peer int, wildcardOK bool) {
	if peer == trace.AnySource && wildcardOK {
		return
	}
	if peer < 0 || peer >= r.rt.n {
		panic(fmt.Sprintf("mpisim: rank %d: peer %d out of range [0,%d)", r.id, peer, r.rt.n))
	}
}

// emit finishes an event: stamps compute/duration, resets the compute
// accumulator, and forwards to the sink.
func (r *Rank) emit(e *trace.Event, startNS float64) {
	e.DurationNS = r.nowNS - startNS
	e.ComputeNS = r.computeNS
	e.GID = -1
	r.computeNS = 0
	r.sink.Event(e)
}

// p2pCost is the sender-side cost of injecting a message: the shared LogGP
// injection formula with this rank's deterministic noise applied.
func (r *Rank) p2pCost(size int) float64 {
	p := r.rt.params
	r.seq++
	return p.InjectNS(size) * p.noise(r.id, r.seq)
}

// Send performs a blocking standard-mode send. Sends are eager: the payload
// joins the receiver's arrived messages and the call returns after the local
// injection cost, matching small-message MPI behavior.
func (r *Rank) Send(dest, size, tag int) {
	r.checkPeer(dest, false)
	start := r.nowNS
	r.deliver(dest, size, tag)
	r.emit(&trace.Event{Op: trace.OpSend, Size: size, Peer: dest, Tag: tag, ReqID: -1}, start)
}

func (r *Rank) deliver(dest, size, tag int) {
	cost := r.p2pCost(size)
	r.nowNS += cost
	d := r.rt.ranks[dest]
	d.mu.Lock()
	d.msgs = append(d.msgs, message{src: r.id, tag: tag, size: size, availNS: r.nowNS + r.rt.params.LatencyNS})
	if d.parked && d.wait == forPeer && d.waitSrc == r.id && d.waitTag == tag {
		d.wake()
	}
	d.mu.Unlock()
}

// Recv performs a blocking receive; src may be trace.AnySource. It returns
// the matched source rank.
func (r *Rank) Recv(src, size, tag int) int {
	r.checkPeer(src, true)
	start := r.nowNS
	msg := r.match(src, tag, size)
	p := r.rt.params
	r.seq++
	r.nowNS = math.Max(r.nowNS+p.OverheadNS*p.noise(r.id, r.seq), msg.availNS)
	e := &trace.Event{Op: trace.OpRecv, Size: size, Peer: msg.src, Tag: tag, ReqID: -1,
		Wildcard: src == trace.AnySource}
	r.emit(e, start)
	return msg.src
}

// park blocks r, whose mu is held, until a waker clears r.parked. If r was
// the last rank running, it runs quiesce itself before it sleeps.
func (r *Rank) park(kind waitKind, src, tag int) {
	r.parked, r.wait, r.waitSrc, r.waitTag = true, kind, src, tag
	if r.rt.running.Add(-1) == 0 {
		r.mu.Unlock()
		r.rt.quiesce()
		r.mu.Lock()
	}
	for r.parked {
		r.cond.Wait()
	}
	if r.rt.dead {
		panic(errAborted)
	}
}

// wake lets parked r run again, counting it as running first; r.mu is held.
func (r *Rank) wake() {
	r.parked = false
	r.rt.running.Add(1)
	r.cond.Signal()
}

// find returns the index of the message a receive of (src, tag) takes, or
// -1: a named source's first in sending order, or for trace.AnySource the
// one with the smallest availNS, ties to the lowest source. r.mu is held.
func (r *Rank) find(src, tag int) int {
	best := -1
	for i, m := range r.msgs {
		if m.tag != tag || src != trace.AnySource && m.src != src {
			continue
		}
		if src != trace.AnySource {
			return i
		}
		if best < 0 || m.availNS < r.msgs[best].availNS ||
			m.availNS == r.msgs[best].availNS && m.src < r.msgs[best].src {
			best = i
		}
	}
	return best
}

// take consumes the message at index i of r.msgs; r.mu is held.
func (r *Rank) take(i, size int) message {
	m := r.msgs[i]
	if m.size != size {
		panic(fmt.Sprintf("mpisim: rank %d: size mismatch recv(%d) vs send(%d) from %d tag %d",
			r.id, size, m.size, m.src, m.tag))
	}
	r.msgs = append(r.msgs[:i], r.msgs[i+1:]...)
	return m
}

// match blocks until a message matching (src, tag, size) is available and
// consumes it. A named source matches as soon as its message is there; a
// wildcard chooses once no rank runs.
func (r *Rank) match(src, tag, size int) message {
	r.mu.Lock()
	defer r.mu.Unlock()
	kind := forPeer
	if src == trace.AnySource {
		kind = forAny
		r.park(kind, src, tag)
	}
	for {
		if i := r.find(src, tag); i >= 0 {
			return r.take(i, size)
		}
		r.park(kind, src, tag)
	}
}

// Isend posts a non-blocking send and returns its request.
func (r *Rank) Isend(dest, size, tag int) *Request {
	r.checkPeer(dest, false)
	start := r.nowNS
	r.deliver(dest, size, tag)
	req := &Request{ID: r.nextReq, isSend: true, tag: tag, size: size,
		done: true, matched: -1, availNS: r.nowNS}
	r.nextReq++
	r.pending = append(r.pending, req)
	r.emit(&trace.Event{Op: trace.OpIsend, Size: size, Peer: dest, Tag: tag, ReqID: req.ID}, start)
	return req
}

// Irecv posts a non-blocking receive; src may be trace.AnySource.
func (r *Rank) Irecv(src, size, tag int) *Request {
	r.checkPeer(src, true)
	start := r.nowNS
	p := r.rt.params
	r.seq++
	r.nowNS += p.OverheadNS * p.noise(r.id, r.seq) / 2
	req := &Request{ID: r.nextReq, src: src, tag: tag, size: size, matched: -1,
		wildcard: src == trace.AnySource}
	r.nextReq++
	r.pending = append(r.pending, req)
	e := &trace.Event{Op: trace.OpIrecv, Size: size, Peer: src, Tag: tag, ReqID: req.ID,
		Wildcard: req.wildcard}
	r.emit(e, start)
	return req
}

// complete blocks until req is done, consuming its message if a receive.
func (r *Rank) complete(req *Request) {
	if !req.done {
		r.fill(req, r.match(req.src, req.tag, req.size))
	}
}

// fill marks receive req done with message m.
func (r *Rank) fill(req *Request, m message) {
	req.done = true
	req.matched = m.src
	req.availNS = m.availNS
	r.nowNS = math.Max(r.nowNS, m.availNS)
}

// ready reports whether req is done, completing it if its message is there;
// r.mu is held.
func (r *Rank) ready(req *Request) bool {
	if !req.done {
		if i := r.find(req.src, req.tag); i >= 0 {
			r.fill(req, r.take(i, req.size))
		}
	}
	return req.done
}

// sweep parks r until no rank runs, so what has arrived is a function of the
// program and not of the Go scheduler. It then completes, in posted order, up
// to limit pending requests that need not block, and returns them.
func (r *Rank) sweep(limit int) []*Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.park(forQuiet, 0, 0)
	var done []*Request
	kept := r.pending[:0]
	for _, q := range r.pending {
		if len(done) < limit && r.ready(q) {
			done = append(done, q)
		} else {
			kept = append(kept, q)
		}
	}
	clear(r.pending[len(kept):])
	r.pending = kept
	return done
}

// completionEvent builds the Reqs/ReqSrcs lists for a completion operation.
func completionEvent(op trace.Op, reqs []*Request) *trace.Event {
	e := &trace.Event{Op: op, Peer: trace.NoPeer, ReqID: -1}
	hasRecv := false
	for _, q := range reqs {
		e.Reqs = append(e.Reqs, q.ID)
		if !q.isSend {
			hasRecv = true
		}
	}
	if hasRecv {
		for _, q := range reqs {
			e.ReqSrcs = append(e.ReqSrcs, int32(q.matched))
		}
	}
	return e
}

// Wait blocks until req completes.
func (r *Rank) Wait(req *Request) {
	start := r.nowNS
	r.complete(req)
	r.pending = slices.DeleteFunc(r.pending, func(q *Request) bool { return q == req })
	r.emit(completionEvent(trace.OpWait, []*Request{req}), start)
}

// Waitall blocks until every pending request completes, in posted order.
func (r *Rank) Waitall() {
	start := r.nowNS
	reqs := append([]*Request(nil), r.pending...)
	for _, q := range reqs {
		r.complete(q)
	}
	r.pending = r.pending[:0]
	r.emit(completionEvent(trace.OpWaitall, reqs), start)
}

// Waitsome blocks until the first pending request completes, then, once no
// rank runs, also reaps every other request that can complete without
// blocking. It returns the completed requests (none only when nothing was
// pending).
func (r *Rank) Waitsome() []*Request {
	start := r.nowNS
	var done []*Request
	if len(r.pending) > 0 {
		r.complete(r.pending[0])
		done = r.sweep(len(r.pending))
	}
	r.emit(completionEvent(trace.OpWaitsome, done), start)
	return done
}

// Testany completes at most one pending request, the first in posted order
// that can complete once no rank runs. It returns that request, or nil.
func (r *Rank) Testany() *Request {
	start := r.nowNS
	done := r.sweep(1)
	r.emit(completionEvent(trace.OpTestany, done), start)
	if len(done) == 0 {
		return nil
	}
	return done[0]
}

// PendingCount returns the number of incomplete request handles, used by
// tests and by the interpreter to validate programs.
func (r *Rank) PendingCount() int { return len(r.pending) }

// Init emits the MPI_Init event.
func (r *Rank) Init() {
	start := r.nowNS
	r.emit(&trace.Event{Op: trace.OpInit, Peer: trace.NoPeer, ReqID: -1}, start)
}

// Finalize synchronizes all ranks (real MPI_Finalize is collective in
// effect), emits the final event, and notifies the sink.
func (r *Rank) Finalize() {
	if n := len(r.pending); n != 0 {
		panic(fmt.Sprintf("mpisim: rank %d finalized with %d incomplete requests", r.id, n))
	}
	start := r.nowNS
	r.collective(trace.OpFinalize, 0, 0)
	r.emit(&trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer, ReqID: -1}, start)
	r.sink.Finalize()
}
