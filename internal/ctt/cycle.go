package ctt

import (
	"repro/internal/timestat"
	"repro/internal/trace"
)

// Record-cycle folding. A leaf whose parameters change with an enclosing
// loop variable (MG's per-level halo sizes, a V-cycle's level sequence)
// produces a periodic sequence of records: [L0 L1 ... Lk-1] repeated once
// per outer iteration. Comparing only against the last record (the paper's
// default) re-records the whole block every iteration. Cycle folding
// detects two consecutive equal record blocks and collapses subsequent
// repetitions into a repetition count, the same move the paper sketches as
// the "larger sliding window" extension — but implemented losslessly: the
// block order and per-cycle counts are retained, so replay reproduces the
// exact sequence by iterating the block Reps times.

// Cycle marks a repeating block of records: Records[Start : Start+Len]
// repeat Reps times, each record occurring Count times per repetition.
// Cycle ranges within one VData are disjoint and ascending.
type Cycle struct {
	Start, Len int32
	Reps       int64
}

// openCycle is the in-progress tail cycle of a leaf during compression.
type openCycle struct {
	start, length int
	pos           int   // index within the block of the expected record
	occ           int64 // occurrences consumed of the expected record
	reps          int64 // completed repetitions
}

// maxCycleLen bounds detection; deeper nests than this fall back to plain
// record appends (MG-style level counts are well under it).
const maxCycleLen = 16

// cycleState lives beside VData during compression.
type cycleState struct {
	open *openCycle
	// frozen is the index past the last closed cycle: records below it are
	// part of a committed cycle and must not absorb further events.
	frozen int
}

// recordsCycleEqual reports whether two records can be twins in a cycle:
// identical parameters and counts; peer-pattern records are excluded
// (patterns and cycles compose poorly and never co-occur in practice).
func recordsCycleEqual(a, b *CommRecord) bool {
	return a.Peers == nil && b.Peers == nil &&
		a.Count == b.Count && a.Ev.SameParams(&b.Ev)
}

// tryFoldCycle attempts to consume ev as the next occurrence of an open
// cycle. It reports whether the event was absorbed.
func (c *Compressor) tryFoldCycle(d *VData, ev *trace.Event, dur, comp float64) bool {
	oc := d.cyc.open
	if oc == nil {
		return false
	}
	target := d.Records[oc.start+oc.pos]
	if target.Peers != nil || !target.Ev.SameParams(ev) {
		c.closeCycle(d)
		return false
	}
	target.Time.Add(dur)
	target.Compute.Add(comp)
	oc.occ++
	if oc.occ == target.Count {
		oc.occ = 0
		oc.pos++
		if oc.pos == oc.length {
			oc.pos = 0
			oc.reps++
		}
	}
	return true
}

// closeCycle commits an open cycle: the completed repetitions become a Cycle
// annotation, and any partial final repetition is materialized as fresh
// trailing records so occurrence counts stay exact.
func (c *Compressor) closeCycle(d *VData) {
	cs := &d.cyc
	oc := cs.open
	cs.open = nil
	if oc == nil {
		return
	}
	d.Cycles = append(d.Cycles, Cycle{Start: int32(oc.start), Len: int32(oc.length), Reps: oc.reps})
	cs.frozen = oc.start + oc.length
	// Expand the partial repetition (records fully consumed, then the
	// one partially consumed). Their time statistics were folded into the
	// block records; the copies carry mean-seeded stats so sample counts
	// stay consistent with occurrence counts.
	appendPartial := func(src *CommRecord, count int64) {
		cp := c.newRecord(d)
		cp.Ev = src.Ev
		cp.PeerRel = src.PeerRel
		cp.Count = count
		cp.RelEncoded = src.RelEncoded
		cp.Time = timestat.MeanSeeded(src.Time.Mean, count)
		cp.Compute = timestat.MeanSeeded(src.Compute.Mean, count)
	}
	for i := 0; i < oc.pos; i++ {
		src := d.Records[oc.start+i]
		appendPartial(src, src.Count)
	}
	if oc.occ > 0 {
		appendPartial(d.Records[oc.start+oc.pos], oc.occ)
	}
}

// tryOpenCycle checks, after a fresh record was appended at index n-1,
// whether the tail now shows two equal consecutive blocks followed by the
// new record matching the block head; if so it collapses the duplicate
// block, hands its records and the newest back to the arena, and opens a
// cycle.
func (c *Compressor) tryOpenCycle(d *VData) {
	cs := &d.cyc
	n := len(d.Records)
	newest := d.Records[n-1]
	if newest.Peers != nil {
		return
	}
	for k := 1; k <= maxCycleLen; k++ {
		// Layout: [block X][block Y][newest], X and Y of length k.
		start := n - 1 - 2*k
		if start < cs.frozen {
			return
		}
		head := d.Records[n-1-k]
		if head.Peers != nil || !head.Ev.SameParams(&newest.Ev) {
			continue
		}
		equal := true
		for i := 0; i < k; i++ {
			if !recordsCycleEqual(d.Records[start+i], d.Records[start+k+i]) {
				equal = false
				break
			}
		}
		if !equal {
			continue
		}
		// Fold block Y into block X and drop it; the newest record becomes
		// the first occurrence of repetition three.
		for i := 0; i < k; i++ {
			x, y := d.Records[start+i], d.Records[start+k+i]
			x.Time.Merge(&y.Time)
			x.Compute.Merge(&y.Compute)
		}
		// newest's single occurrence folds into the block head.
		d.Records[start].Time.Merge(&newest.Time)
		d.Records[start].Compute.Merge(&newest.Compute)
		c.recs.release(d.Records[start+k : n])
		d.Records = d.Records[:start+k]
		oc := &openCycle{start: start, length: k, reps: 2, pos: 0, occ: 1}
		if d.Records[start].Count == 1 {
			oc.occ = 0
			oc.pos = 1
			if oc.pos == oc.length {
				oc.pos = 0
				oc.reps++
			}
		}
		cs.open = oc
		return
	}
}
