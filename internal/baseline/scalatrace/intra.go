package scalatrace

import (
	"fmt"

	"repro/internal/timestat"
	"repro/internal/trace"
)

// Compressor is the per-rank dynamic compressor. It implements trace.Sink
// but ignores every structure marker: all pattern discovery is bottom-up
// from the event sequence, as in ScalaTrace.
type Compressor struct {
	mode   Mode
	rank   int
	window int

	terms  []*Term
	posted int64 // non-blocking requests posted so far (for delta encoding)
	events int64

	finished bool
}

// DefaultWindow bounds the tail-matching search, the knob real ScalaTrace
// exposes to trade compression for speed.
const DefaultWindow = 48

// NewCompressor returns a dynamic compressor for one rank.
func NewCompressor(mode Mode, rank, window int) *Compressor {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Compressor{mode: mode, rank: rank, window: window}
}

// Structure markers are invisible to dynamic-only tools.

func (c *Compressor) LoopEnter(int32)         {}
func (c *Compressor) LoopIter(int32)          {}
func (c *Compressor) BranchEnter(int32, int8) {}
func (c *Compressor) BranchSkip(int32)        {}
func (c *Compressor) CallEnter(int32)         {}
func (c *Compressor) StructExit()             {}
func (c *Compressor) CommSite(int32)          {}

// Event implements trace.Sink.
func (c *Compressor) Event(e *trace.Event) {
	c.events++
	t := c.canonicalize(e)
	c.terms = append(c.terms, t)
	c.compressTail()
}

// Finalize implements trace.Sink.
func (c *Compressor) Finalize() { c.finished = true }

func (c *Compressor) canonicalize(e *trace.Event) *Term {
	t := &Term{
		Op:       e.Op,
		Comm:     e.Comm,
		Wildcard: e.Wildcard,
		PeerAbs:  e.Peer,
	}
	if e.Op.IsPointToPoint() {
		if e.Wildcard && e.Op == trace.OpIrecv {
			// The source is unknown at post time; dynamic tools record the
			// wildcard itself.
			t.PeerRel = 0
			t.PeerAbs = trace.AnySource
		} else {
			t.PeerRel = e.Peer - c.rank
		}
	}
	t.Sizes.Append(int64(e.Size))
	t.Tags.Append(int64(e.Tag))
	if e.Op.IsNonBlocking() {
		c.posted++
	}
	if e.Op.IsCompletion() {
		t.ReqDeltas = make([]int32, len(e.Reqs))
		for i, q := range e.Reqs {
			t.ReqDeltas[i] = q - int32(c.posted)
		}
	}
	t.Time = timestat.New(timestat.ModeMeanStddev)
	t.Time.Add(e.DurationNS)
	return t
}

// equal dispatches on mode.
func (c *Compressor) equal(a, b *Term) bool {
	if c.mode == V2 {
		return equalElastic(a, b)
	}
	return equalExact(a, b)
}

// compressTail greedily folds the queue tail, the heart of ScalaTrace's
// intra-process algorithm. Two forms are attempted for every window length:
//
//	target ... [A1..Aw][B1..Bw]   with Ai == Bi  →  RSD{2, A}
//	target ... RSD{k, A}[B1..Bw]  with Ai == Bi  →  RSD{k+1, A}
//
// Cost is O(window²) term comparisons per event in the worst case — the
// compression overhead the paper measures against.
func (c *Compressor) compressTail() {
	for {
		merged := false
		n := len(c.terms)
		maxW := c.window
		if n/2 < maxW {
			maxW = n / 2
		}
		for w := 1; w <= maxW; w++ {
			if c.tryRSDIncrement(w) || c.tryRSDCreate(w) {
				merged = true
				break
			}
		}
		if !merged {
			// Elastic mode can still fold the last event into an identical
			// immediate predecessor even when sizes differ.
			if c.mode == V2 && len(c.terms) >= 2 {
				a, b := c.terms[len(c.terms)-2], c.terms[len(c.terms)-1]
				if !a.IsRSD && !b.IsRSD && equalElastic(a, b) && !eqHeadAndParams(a, b) {
					fold(a, b, V2)
					c.terms = c.terms[:len(c.terms)-1]
					continue
				}
			}
			return
		}
	}
}

// eqHeadAndParams reports full parameter equality for two event terms; used
// to decide between RSD creation (exact repeats) and elastic folding.
func eqHeadAndParams(a, b *Term) bool {
	return eventHeadEqual(a, b) && a.Sizes.Equal(&b.Sizes) && a.Tags.Equal(&b.Tags)
}

// tryRSDCreate folds the last 2w terms into RSD{2, ...} when the two halves
// match termwise.
func (c *Compressor) tryRSDCreate(w int) bool {
	n := len(c.terms)
	if n < 2*w {
		return false
	}
	a := c.terms[n-2*w : n-w]
	b := c.terms[n-w:]
	for i := 0; i < w; i++ {
		if !c.equal(a[i], b[i]) {
			return false
		}
	}
	rsd := &Term{IsRSD: true, Body: append([]*Term(nil), a...)}
	rsd.CountSeq.Append(2)
	for i := 0; i < w; i++ {
		fold(a[i], b[i], foldMode(c.mode))
	}
	c.terms = append(c.terms[:n-2*w], rsd)
	return true
}

// foldMode: intra-process exact folding still accumulates time stats, but
// must not duplicate size/tag sequences (they are identical).
func foldMode(m Mode) Mode {
	if m == V2 {
		return V2
	}
	return V1
}

// tryRSDIncrement extends RSD{k, A} when the last w terms equal its body.
func (c *Compressor) tryRSDIncrement(w int) bool {
	n := len(c.terms)
	if n < w+1 {
		return false
	}
	r := c.terms[n-w-1]
	if !r.IsRSD || len(r.Body) != w {
		return false
	}
	tail := c.terms[n-w:]
	for i := 0; i < w; i++ {
		if !c.equal(r.Body[i], tail[i]) {
			return false
		}
	}
	last := r.CountSeq.At(r.CountSeq.Len() - 1)
	// Increment the trailing count: rebuild by appending is wrong, so track
	// the count sequence as (..., last+1) via a dedicated bump.
	r.bumpLastCount(last + 1)
	for i := 0; i < w; i++ {
		fold(r.Body[i], tail[i], foldMode(c.mode))
	}
	c.terms = c.terms[:n-w]
	return true
}

// bumpLastCount replaces the final value of the RSD count sequence.
func (t *Term) bumpLastCount(v int64) {
	t.CountSeq.SetLast(v)
}

// RankTrace is a finished per-rank compressed trace.
type RankTrace struct {
	Rank   int
	Terms  []*Term
	Events int64
}

// Finish extracts the compressed trace. The compressor must have observed
// Finalize.
func (c *Compressor) Finish() *RankTrace {
	if !c.finished {
		panic("scalatrace: Finish before Finalize")
	}
	return &RankTrace{Rank: c.rank, Terms: c.terms, Events: c.events}
}

// MemoryBytes estimates live memory, for Figure 16's memory overhead curves.
func (c *Compressor) MemoryBytes() int64 {
	// Terms are heap nodes with headers; 160 bytes models the struct plus
	// slice headers, matching Go's allocator size class for Term.
	return countTerms(c.terms)*160 + SizeBytes(c.terms)
}

func (c *Compressor) String() string {
	return fmt.Sprintf("%v(rank %d, %d terms)", c.mode, c.rank, len(c.terms))
}
