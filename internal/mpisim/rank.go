package mpisim

import (
	"fmt"
	"math"

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
}

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
// is buffered at the receiver's mailbox and the call returns after the local
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
	avail := r.nowNS + r.rt.params.LatencyNS
	mb := r.rt.boxes[dest]
	mb.mu.Lock()
	mb.msgs = append(mb.msgs, message{src: r.id, tag: tag, size: size, availNS: avail})
	mb.mu.Unlock()
	mb.cond.Broadcast()
	r.rt.noteProgress()
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

// match blocks until a message matching (src, tag, size) is available and
// consumes the first match in arrival order.
func (r *Rank) match(src, tag, size int) message {
	mb := r.rt.boxes[r.id]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.msgs {
			if (src == trace.AnySource || m.src == src) && m.tag == tag {
				if m.size != size {
					panic(fmt.Sprintf("mpisim: rank %d: size mismatch recv(%d) vs send(%d) from %d tag %d",
						r.id, size, m.size, m.src, tag))
				}
				mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
				return m
			}
		}
		r.rt.markBlocked(+1)
		mb.cond.Wait()
		r.rt.markBlocked(-1)
		if r.rt.failureErr() != nil {
			panic(errAborted)
		}
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
	if req.done {
		return
	}
	msg := r.match(req.src, req.tag, req.size)
	req.done = true
	req.matched = msg.src
	req.availNS = msg.availNS
	r.nowNS = math.Max(r.nowNS, msg.availNS)
}

// tryComplete attempts non-blocking completion; it reports success.
func (r *Rank) tryComplete(req *Request) bool {
	if req.done {
		return true
	}
	mb := r.rt.boxes[r.id]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, m := range mb.msgs {
		if (req.src == trace.AnySource || m.src == req.src) && m.tag == req.tag {
			if m.size != req.size {
				panic(fmt.Sprintf("mpisim: rank %d: size mismatch irecv(%d) vs send(%d)",
					r.id, req.size, m.size))
			}
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			req.done = true
			req.matched = m.src
			req.availNS = m.availNS
			r.nowNS = math.Max(r.nowNS, m.availNS)
			return true
		}
	}
	return false
}

// removePending drops completed requests from the pending list.
func (r *Rank) removePending(done map[*Request]bool) {
	kept := r.pending[:0]
	for _, q := range r.pending {
		if !done[q] {
			kept = append(kept, q)
		}
	}
	for i := len(kept); i < len(r.pending); i++ {
		r.pending[i] = nil
	}
	r.pending = kept
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
	r.removePending(map[*Request]bool{req: true})
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

// Waitsome blocks until at least one pending request completes, then also
// reaps every other request that can complete without blocking. It returns
// the completed requests (none only when nothing was pending).
func (r *Rank) Waitsome() []*Request {
	start := r.nowNS
	if len(r.pending) == 0 {
		r.emit(completionEvent(trace.OpWaitsome, nil), start)
		return nil
	}
	var doneReqs []*Request
	// Block on the first pending request, then sweep the rest.
	first := r.pending[0]
	r.complete(first)
	doneReqs = append(doneReqs, first)
	for _, q := range r.pending[1:] {
		if r.tryComplete(q) {
			doneReqs = append(doneReqs, q)
		}
	}
	doneSet := map[*Request]bool{}
	for _, q := range doneReqs {
		doneSet[q] = true
	}
	r.removePending(doneSet)
	r.emit(completionEvent(trace.OpWaitsome, doneReqs), start)
	return doneReqs
}

// Testany attempts to complete at most one pending request without blocking.
// It returns the completed request, or nil.
func (r *Rank) Testany() *Request {
	start := r.nowNS
	for _, q := range r.pending {
		if r.tryComplete(q) {
			r.removePending(map[*Request]bool{q: true})
			r.emit(completionEvent(trace.OpTestany, []*Request{q}), start)
			return q
		}
	}
	r.emit(completionEvent(trace.OpTestany, nil), start)
	return nil
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
