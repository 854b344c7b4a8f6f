// Package rankset provides stride-compressed sets of MPI process ranks.
//
// After inter-process merging, every vertex-data entry in the merged
// compressed trace tree is annotated with the set of ranks sharing that data
// (paper Figure 13: "<p0,p1: k>"). SPMD programs make these sets dense ranges
// like 1..P-2, so the stride encoding keeps them O(1) regardless of P.
package rankset

import (
	"fmt"
	"strings"

	"repro/internal/fp"
	"repro/internal/stride"
)

// Set is an immutable-after-build set of ranks. Ranks must be added in
// strictly increasing order (Union handles the general case).
type Set struct {
	s stride.Set
}

// Single returns the set {r}.
func Single(r int) *Set {
	var s Set
	s.s.Add(int64(r))
	return &s
}

// InitSingle (re)initializes s in place to the one-member set {r} without
// heap allocation, letting callers carve per-entry sets out of slabs.
func (s *Set) InitSingle(r int) {
	s.s = stride.Set{}
	s.s.Add(int64(r))
}

// SeedSingle adds r to s, which the caller guarantees is zero-valued (freshly
// slab-carved): InitSingle minus the redundant receiver reset, on the merge's
// leaf-building hot path.
func (s *Set) SeedSingle(r int) { s.s.Add(int64(r)) }

// Range returns the set {lo, lo+1, ..., hi}. It panics when hi < lo.
func Range(lo, hi int) *Set {
	if hi < lo {
		panic(fmt.Sprintf("rankset: invalid range [%d,%d]", lo, hi))
	}
	var s Set
	s.s.AppendRun(stride.Run{First: int64(lo), Stride: 1, Count: int64(hi-lo) + 1})
	return &s
}

// FromSorted builds a set from a strictly increasing slice of ranks.
func FromSorted(ranks []int) *Set {
	var s Set
	for _, r := range ranks {
		s.s.Add(int64(r))
	}
	return &s
}

// Len returns the number of ranks in the set.
func (s *Set) Len() int { return int(s.s.Len()) }

// Contains reports whether rank r is a member.
func (s *Set) Contains(r int) bool { return s.s.Contains(int64(r)) }

// Members materializes the set in increasing order.
func (s *Set) Members() []int {
	vals := s.s.Values()
	out := make([]int, len(vals))
	for i, v := range vals {
		out[i] = int(v)
	}
	return out
}

// Min returns the smallest member. It panics on an empty set.
func (s *Set) Min() int {
	if s.s.Len() == 0 {
		panic("rankset: Min of empty set")
	}
	return int(s.s.Runs()[0].First)
}

// max returns the largest member. Caller guarantees the set is non-empty.
func (s *Set) max() int64 {
	runs := s.s.Runs()
	return runs[len(runs)-1].Last()
}

// TryAppend extends s in place with o's members when every member of o is
// strictly greater than every member of s (the common case in the binary
// merge reduction, where the right half's ranks all exceed the left half's).
// It reports whether the append happened; when it returns false, s is
// unchanged and the caller must fall back to Union. The run structure after a
// successful append is identical to adding o's members one by one, so sets
// built through TryAppend stay canonical (byte-stable serialization).
func (s *Set) TryAppend(o *Set) bool {
	if o.s.Len() == 0 {
		return true
	}
	if s.s.Len() > 0 && int64(o.Min()) <= s.max() {
		return false
	}
	for _, r := range o.s.Runs() {
		s.s.Vector.ExtendCanonical(r)
	}
	return true
}

// Union returns the union of two sets. Members are merged and re-encoded; the
// operands are unchanged. Inputs are disjoint in the merge algorithm, but
// Union tolerates overlap for robustness.
//
// When the operands occupy disjoint, ordered value ranges — the overwhelmingly
// common case in the merge's binary reduction, where each half covers a
// contiguous block of ranks — the union concatenates the run lists directly
// in O(runs) without materializing members. The general overlapping case
// falls back to a two-cursor merge over run values.
func Union(a, b *Set) *Set {
	var out Set
	switch {
	case a.s.Len() == 0:
		for _, r := range b.s.Runs() {
			out.s.Vector.ExtendCanonical(r)
		}
	case b.s.Len() == 0:
		for _, r := range a.s.Runs() {
			out.s.Vector.ExtendCanonical(r)
		}
	case a.max() < int64(b.Min()):
		for _, r := range a.s.Runs() {
			out.s.Vector.ExtendCanonical(r)
		}
		for _, r := range b.s.Runs() {
			out.s.Vector.ExtendCanonical(r)
		}
	case b.max() < int64(a.Min()):
		for _, r := range b.s.Runs() {
			out.s.Vector.ExtendCanonical(r)
		}
		for _, r := range a.s.Runs() {
			out.s.Vector.ExtendCanonical(r)
		}
	default:
		unionOverlap(&out, a, b)
	}
	return &out
}

// unionOverlap merges two interleaved sets value by value with a two-cursor
// walk over their runs, deduplicating as it goes. O(|a|+|b|) values, but only
// reached when rank ranges interleave, which the reduction never produces.
func unionOverlap(out *Set, a, b *Set) {
	ar, br := a.s.Runs(), b.s.Runs()
	var ai, bi int
	var aj, bj int64 // index within current run
	prev := int64(-1) << 62
	emit := func(v int64) {
		if v != prev {
			out.s.Vector.Append(v)
			prev = v
		}
	}
	for ai < len(ar) && bi < len(br) {
		av, bv := ar[ai].At(aj), br[bi].At(bj)
		if av <= bv {
			emit(av)
			if aj++; aj == ar[ai].Count {
				ai, aj = ai+1, 0
			}
		} else {
			emit(bv)
			if bj++; bj == br[bi].Count {
				bi, bj = bi+1, 0
			}
		}
	}
	for ; ai < len(ar); ai, aj = ai+1, 0 {
		for ; aj < ar[ai].Count; aj++ {
			emit(ar[ai].At(aj))
		}
	}
	for ; bi < len(br); bi, bj = bi+1, 0 {
		for ; bj < br[bi].Count; bj++ {
			emit(br[bi].At(bj))
		}
	}
}

// Equal reports set equality.
func (s *Set) Equal(o *Set) bool { return s.s.Equal(&o.s.Vector) }

// Hash folds the set's canonical run structure into h. Sets that compare
// Equal fold identically.
func (s *Set) Hash(h fp.Hash) fp.Hash { return s.s.Vector.Hash(h) }

// Load (re)builds the set in place from serialized runs, reusing the
// receiver's storage, spilled runs included (see stride.Vector.Reset). Used
// by the slab-backed decoder, which carves Set values out of chunks instead of
// allocating one per entry, and tests every rank set of a projected decode in
// one scratch Set.
func (s *Set) Load(runs []stride.Run) {
	s.s.Reset()
	for _, r := range runs {
		s.s.AppendRun(r)
	}
}

// Runs exposes the underlying stride runs for serialization.
func (s *Set) Runs() []stride.Run { return s.s.Runs() }

// FromRuns rebuilds a set from serialized runs.
func FromRuns(runs []stride.Run) *Set {
	var s Set
	for _, r := range runs {
		s.s.AppendRun(r)
	}
	return &s
}

// SizeBytes estimates the serialized footprint.
func (s *Set) SizeBytes() int64 { return s.s.SizeBytes() }

// String renders the set, e.g. "ranks<1,30,1>" or "ranks{0}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString("ranks")
	b.WriteString(s.s.String())
	return b.String()
}
