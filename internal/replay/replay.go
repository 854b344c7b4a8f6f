// Package replay decompresses CYPRESS trace trees back into per-rank event
// sequences (paper Section V): a pre-order traversal of the CTT that expands
// loop vertices by their recorded iteration counts, selects branch arms by
// their recorded taken indices, and prints the run-length records of comm
// leaves. The regenerated sequence is what trace-driven simulators consume.
package replay

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/obs"
	"repro/internal/stride"
	"repro/internal/trace"
)

// Source provides one rank's view of a compressed trace tree. The per-rank
// *ctt.RankCTT implements it, and so do the post-merge tree's views.
type Source interface {
	Tree() *cst.Tree
	// Counts returns the loop/pseudo-loop activation counts for a vertex,
	// nil when the rank never executed it.
	Counts(gid int32) *stride.Vector
	// Taken returns the branch-arm taken set, nil when never taken.
	Taken(gid int32) *stride.Set
	// Records returns the comm-leaf records, nil when never executed.
	Records(gid int32) []*ctt.CommRecord
	// Cycles returns the record-cycle annotations for a leaf.
	Cycles(gid int32) []ctt.Cycle
}

// Events decompresses rank's event sequence, invoking emit for each event in
// original program order. Recursion (pseudo-loop) replay is approximate, as
// in the paper: levels replay sequentially rather than interleaved. The event
// pointer passed to emit is only valid for the duration of the callback.
func Events(src Source, rank int, emit func(e *trace.Event)) error {
	var ev trace.Event
	var n int64
	err := walkSteps(src, rank, func(_ int32, _ int, rec *ctt.CommRecord, k int64) error {
		synthesize(&ev, rec, rank, k)
		emit(&ev)
		n++
		return nil
	})
	obs.Attached().Add(obs.ReplayEventsEmitted, n)
	return err
}

// Step is one emitted event of a replay skeleton: the slot of the source
// record and the occurrence index within it. Slots number the (gid, record
// index) pairs of a view in GID order, so a rank's records concatenated
// vertex after vertex are the table its slots index. A skeleton therefore
// holds only what the walk decided — and the walk reads Counts, Taken,
// Cycles, the number of records of a vertex and each record's Count, never a
// size, tag, peer, request list or timing — so ranks whose views agree on
// those (ctt.VData.SameShape, vertex by vertex) share one skeleton and each
// synthesizes from its own records (see merge.Streamer).
type Step struct {
	Slot uint32
	K    uint32
}

// Skeleton walks src once and returns rank's replay skeleton. When emit is
// non-nil, events are additionally synthesized and emitted during the walk,
// exactly as Events would — building a skeleton for the first rank of a
// group costs no second pass. A view with more than 2^32 records, or a walk
// that reaches an occurrence index past 2^32, is an error: a Step never holds
// a truncated slot or K.
func Skeleton(src Source, rank int, emit func(e *trace.Event)) ([]Step, error) {
	base := make([]uint32, src.Tree().NumVertices())
	var slots uint64
	for gid := range base {
		base[gid] = uint32(slots)
		slots += uint64(len(src.Records(int32(gid))))
	}
	if slots > math.MaxUint32 {
		return nil, fmt.Errorf("replay: rank %d: %d records do not fit a 32-bit slot", rank, slots)
	}
	var steps []Step
	var ev trace.Event
	err := walkSteps(src, rank, func(gid int32, idx int, rec *ctt.CommRecord, k int64) error {
		if k > math.MaxUint32 {
			return fmt.Errorf("replay: rank %d: leaf %d occurrence %d does not fit a 32-bit step", rank, gid, k)
		}
		steps = append(steps, Step{Slot: base[gid] + uint32(idx), K: uint32(k)})
		if emit != nil {
			synthesize(&ev, rec, rank, k)
			emit(&ev)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return steps, nil
}

// evPool recycles the one event buffer a skeleton scan synthesizes into; the
// buffer escapes through the emit callback, so without pooling every
// EmitSkeleton call would heap-allocate it and steady-state streaming replay
// would cost one allocation per rank.
var evPool = sync.Pool{New: func() any { return new(trace.Event) }}

// EmitSkeleton synthesizes the events of a skeleton from rank's perspective,
// in order, out of recs — rank's own records in slot order, from a view of
// the skeleton's shape, whichever rank's walk built it. The emitted sequence
// is byte-identical to a full Events walk of that view. The event pointer is
// only valid during the callback.
func EmitSkeleton(steps []Step, recs []*ctt.CommRecord, rank int, emit func(e *trace.Event)) {
	ev := evPool.Get().(*trace.Event)
	for _, st := range steps {
		synthesize(ev, recs[st.Slot], rank, int64(st.K))
		emit(ev)
	}
	*ev = trace.Event{} // drop record-aliased slices before pooling
	evPool.Put(ev)
	obs.Attached().Add(obs.ReplayEventsEmitted, int64(len(steps)))
}

// Cursor is a pull iterator over a replay skeleton: the per-rank-iterator
// entry point streaming consumers (simmpi.SimulateStreamPar) drive. It holds
// O(1) state per rank on top of the shared skeleton and the rank's bound
// records.
type Cursor struct {
	steps []Step
	recs  []*ctt.CommRecord
	rank  int
	i     int
	ev    trace.Event
	// counted marks the cursor's events as already folded into the sink's
	// emission tally (done once, on exhaustion).
	counted bool
}

// NewCursor returns a cursor over steps from rank's perspective; recs is as
// for EmitSkeleton and must stay unchanged while the cursor is in use.
func NewCursor(steps []Step, recs []*ctt.CommRecord, rank int) *Cursor {
	return &Cursor{steps: steps, recs: recs, rank: rank}
}

// Next returns the next event, or false when the sequence is exhausted. The
// returned pointer is only valid until the following Next call.
func (c *Cursor) Next() (*trace.Event, bool) {
	if c.i >= len(c.steps) {
		if !c.counted {
			c.counted = true
			obs.Attached().Add(obs.ReplayEventsEmitted, int64(len(c.steps)))
		}
		return nil, false
	}
	st := c.steps[c.i]
	c.i++
	synthesize(&c.ev, c.recs[st.Slot], c.rank, int64(st.K))
	return &c.ev, true
}

// Len returns the total number of events the cursor will yield.
func (c *Cursor) Len() int { return len(c.steps) }

// synthesize materializes one replayed event from a record occurrence; the
// single definition shared by Events, EmitSkeleton, and Cursor keeps every
// replay path byte-identical.
func synthesize(ev *trace.Event, rec *ctt.CommRecord, rank int, k int64) {
	*ev = rec.Ev
	ev.Peer = rec.PeerForAt(rank, k)
	ev.DurationNS = rec.Time.Mean
	ev.ComputeNS = rec.Compute.Mean
}

// stepFunc receives one record occurrence of the walk: the leaf's gid, the
// record's index on the leaf's list, the record, and the occurrence index
// within it. An error ends the walk.
type stepFunc func(gid int32, idx int, rec *ctt.CommRecord, k int64) error

// walkSteps drives the pre-order tree walk, invoking step for each record
// occurrence in original program order.
func walkSteps(src Source, rank int, step stepFunc) error {
	tree := src.Tree()
	n := tree.NumVertices()
	r := &replayer{
		src:   src,
		rank:  rank,
		step:  step,
		rec:   make([]recCursor, n),
		act:   make([]int64, n),
		reach: make([]int64, n),
	}
	// MPI_Init lives first on the root's record list, MPI_Finalize second.
	if err := r.emitLeaf(tree.Root); err != nil {
		return err
	}
	if _, err := r.walkBody(tree.Root); err != nil {
		return err
	}
	if err := r.emitLeaf(tree.Root); err != nil {
		return err
	}
	return nil
}

type recCursor struct {
	idx      int
	consumed int64
	rep      int64 // completed repetitions of the active record cycle
}

// replayer is one rank's walk. Its per-vertex state is indexed by GID, like
// the compressor's: the tree is known before the walk starts.
type replayer struct {
	src  Source
	rank int
	step stepFunc
	rec  []recCursor // record cursor per comm leaf (and the root)
	act  []int64     // next activation index per loop vertex
	// reach counts how often each branch site was reached, at the GID of the
	// site's first arm vertex — where the compressor keeps the counter whose
	// values the arms' taken sets hold.
	reach []int64
}

func (r *replayer) emitLeaf(v *cst.Vertex) error {
	records := r.src.Records(v.GID)
	cur := &r.rec[v.GID]
	if cur.idx >= len(records) {
		return fmt.Errorf("replay: rank %d: leaf %d (%v) out of records", r.rank, v.GID, v.Op)
	}
	rec := records[cur.idx]
	if err := r.step(v.GID, cur.idx, rec, cur.consumed); err != nil {
		return err
	}
	cur.consumed++
	if cur.consumed >= rec.Count {
		cur.idx++
		cur.consumed = 0
		// Record cycles: after the block's last record, loop back to its
		// start until the repetitions are exhausted.
		for _, cy := range r.src.Cycles(v.GID) {
			if int32(cur.idx) == cy.Start+cy.Len {
				cur.rep++
				if cur.rep < cy.Reps {
					cur.idx = int(cy.Start)
				} else {
					cur.rep = 0
				}
				break
			}
		}
	}
	return nil
}

// nextActivation consumes the next activation count for a loop vertex.
func (r *replayer) nextActivation(v *cst.Vertex) (int64, error) {
	counts := r.src.Counts(v.GID)
	idx := r.act[v.GID]
	if counts == nil || idx >= counts.Len() {
		return 0, fmt.Errorf("replay: rank %d: loop %d out of activations", r.rank, v.GID)
	}
	r.act[v.GID] = idx + 1
	return counts.At(idx), nil
}

// walkBody replays the children of v once; it reports whether execution
// unwound through an early return.
func (r *replayer) walkBody(v *cst.Vertex) (bool, error) {
	children := v.Children
	for i := 0; i < len(children); {
		c := children[i]
		switch c.Kind {
		case cst.KindComm:
			if err := r.emitLeaf(c); err != nil {
				return false, err
			}
			i++
		case cst.KindLoop:
			n, err := r.nextActivation(c)
			if err != nil {
				return false, err
			}
			for k := int64(0); k < n; k++ {
				ret, err := r.walkBody(c)
				if err != nil {
					return false, err
				}
				if ret {
					return true, nil
				}
			}
			if c.Returns && n >= 1 {
				// The loop body ends in an unconditional return; having
				// iterated at least once means the function exited here.
				return true, nil
			}
			i++
		case cst.KindBranch:
			// Group the consecutive arms of this if site.
			j := i
			for j < len(children) && children[j].Kind == cst.KindBranch && children[j].Site == c.Site {
				j++
			}
			idx := r.reach[c.GID]
			r.reach[c.GID]++
			for _, arm := range children[i:j] {
				taken := r.src.Taken(arm.GID)
				if taken != nil && taken.Contains(idx) {
					ret, err := r.walkBody(arm)
					if err != nil {
						return false, err
					}
					if ret || arm.Returns {
						return true, nil
					}
					break
				}
			}
			i = j
		case cst.KindCall:
			if c.Recursive {
				levels, err := r.nextActivation(c)
				if err != nil {
					return false, err
				}
				for k := int64(0); k < levels; k++ {
					// Each recursion level replays one pass of the unrolled
					// body; early returns end the level, not the caller.
					if _, err := r.walkBody(c); err != nil {
						return false, err
					}
				}
			} else {
				// A non-recursive call's return never unwinds the caller.
				if _, err := r.walkBody(c); err != nil {
					return false, err
				}
			}
			i++
		case cst.KindRecCall:
			// Recursion loop-backs were already accounted for in the
			// pseudo-loop's level count.
			i++
		default:
			return false, fmt.Errorf("replay: unexpected vertex kind %v", c.Kind)
		}
	}
	return false, nil
}

// Sequence materializes the full decompressed event list for one rank.
func Sequence(src Source, rank int) ([]trace.Event, error) {
	var out []trace.Event
	err := Events(src, rank, func(e *trace.Event) {
		out = append(out, *e)
	})
	return out, err
}

// Equivalent compares a raw traced sequence against a decompressed one,
// ignoring the representational differences compression introduces: request
// identifiers are rewritten to GIDs (list lengths must still match), timing
// is summarized, completion records drop per-request resolved sources, and
// non-blocking wildcard receives carry the resolved source instead of
// AnySource. Everything else must match exactly, in order.
func Equivalent(raw, replayed []trace.Event) error {
	if len(raw) != len(replayed) {
		return fmt.Errorf("replay: length mismatch: raw %d vs replayed %d", len(raw), len(replayed))
	}
	for i := range raw {
		a, b := raw[i], replayed[i]
		if a.Op != b.Op || a.Size != b.Size || a.Tag != b.Tag || a.Comm != b.Comm ||
			a.Wildcard != b.Wildcard || len(a.Reqs) != len(b.Reqs) {
			return fmt.Errorf("replay: event %d mismatch: raw %v vs replayed %v", i, a, b)
		}
		peerOK := a.Peer == b.Peer
		if a.Op == trace.OpIrecv && a.Wildcard {
			// Raw has AnySource; replayed has the resolved source.
			peerOK = b.Peer != trace.AnySource
		}
		if !peerOK {
			return fmt.Errorf("replay: event %d peer mismatch: raw %v vs replayed %v", i, a, b)
		}
	}
	return nil
}
