// Package stride implements run compression of integer sequences using
// <first, stride, count> tuples, the core encoding CYPRESS uses for loop
// iteration counts and branch taken-indices (paper Section IV, Figures 10-11).
//
// A Vector stores an ordered sequence of int64 values; consecutive values
// with a constant difference collapse into a single run. Appending is O(1)
// amortized, random access is O(log r) in the number of runs, and two vectors
// compare in O(r) time.
//
// Vectors carry a small inline run buffer: sequences that compress to at most
// inlineRuns runs (the overwhelmingly common case — a loop vertex whose trip
// count never changes is exactly one run) never touch the heap. The runs
// spill to a heap slice only when the sequence needs more runs.
package stride

import (
	"fmt"
	"strings"
	"unsafe"

	"repro/internal/fp"
)

// Run is a maximal arithmetic subsequence: Count values starting at First
// with common difference Stride. A Run with Count == 1 has Stride 0.
type Run struct {
	First  int64
	Stride int64
	Count  int64
}

// Last returns the final value covered by the run.
func (r Run) Last() int64 { return r.First + (r.Count-1)*r.Stride }

// At returns the i-th value of the run (0-based). It panics if i is out of
// range, which indicates a bug in the caller's cursor arithmetic.
func (r Run) At(i int64) int64 {
	if i < 0 || i >= r.Count {
		panic(fmt.Sprintf("stride: run index %d out of range [0,%d)", i, r.Count))
	}
	return r.First + i*r.Stride
}

// inlineRuns is the number of runs stored inline before spilling to the heap.
const inlineRuns = 2

// Vector is an append-only integer sequence stored as stride runs.
// The zero value is an empty vector ready for use.
//
// Copying a Vector whose runs are still inline yields an independent vector;
// once spilled, copies share the heap run storage (as the pre-inline
// implementation always did), so treat copies as read-only views.
type Vector struct {
	inl  [inlineRuns]Run
	heap []Run // non-nil once the sequence needs more than inlineRuns runs
	nr   int32 // number of runs (in inl[:nr] or heap, never both)
	n    int64 // total number of values
}

// view returns the current runs without copying. The slice aliases either the
// inline buffer or the heap storage and is invalidated by the next mutation.
func (v *Vector) view() []Run {
	if v.heap != nil {
		return v.heap
	}
	return v.inl[:v.nr]
}

// lastRun returns a pointer to the final run. Caller guarantees nr > 0.
func (v *Vector) lastRun() *Run {
	if v.heap != nil {
		return &v.heap[len(v.heap)-1]
	}
	return &v.inl[v.nr-1]
}

// pushRun appends a run, spilling inline storage to the heap when full.
func (v *Vector) pushRun(r Run) {
	if v.heap == nil {
		if int(v.nr) < inlineRuns {
			v.inl[v.nr] = r
			v.nr++
			return
		}
		v.heap = make([]Run, v.nr, 2*inlineRuns+2)
		copy(v.heap, v.inl[:v.nr])
	}
	v.heap = append(v.heap, r)
	v.nr++
}

// popRun removes the final run. Caller guarantees nr > 0.
func (v *Vector) popRun() {
	v.nr--
	if v.heap != nil {
		v.heap = v.heap[:v.nr]
	}
}

// Reset empties v and keeps its run storage for the runs appended next.
// Copies of a spilled v share that storage, so a vector that has been copied
// must not be reset.
func (v *Vector) Reset() {
	if v.heap != nil {
		v.heap = v.heap[:0]
	}
	v.nr, v.n = 0, 0
}

// Len returns the number of logical values stored.
func (v *Vector) Len() int64 { return v.n }

// Runs returns the underlying runs. The slice must not be modified and is
// valid only until the next mutation of the vector.
func (v *Vector) Runs() []Run { return v.view() }

// Append adds x to the end of the sequence, extending the final run when x
// continues its arithmetic progression. Appends that extend a run — every
// append after the second in a constant-stride sequence — are allocation-free.
func (v *Vector) Append(x int64) {
	var last *Run
	if v.nr > 0 {
		last = v.lastRun()
	}
	v.appendAfter(last, x)
}

// appendAfter appends x to v, whose final run is last (nil when v is empty).
func (v *Vector) appendAfter(last *Run, x int64) {
	v.n++
	if last == nil {
		v.pushRun(Run{First: x, Count: 1})
		return
	}
	switch last.Count {
	case 1:
		// A singleton can adopt any stride.
		last.Stride = x - last.First
		last.Count = 2
		return
	default:
		if last.Last()+last.Stride == x {
			last.Count++
			return
		}
	}
	v.pushRun(Run{First: x, Count: 1})
}

// AppendRun adds an explicit run to the end of the sequence. It is used when
// bulk-loading decoded vectors; no merging with the previous run is attempted
// beyond the trivial continuation check.
func (v *Vector) AppendRun(r Run) {
	if r.Count <= 0 {
		return
	}
	v.n += r.Count
	if v.nr > 0 {
		last := v.lastRun()
		if last.Stride == r.Stride && last.Last()+last.Stride == r.First {
			last.Count += r.Count
			return
		}
	}
	v.pushRun(r)
}

// ExtendCanonical appends the run's values as if by repeated Append, in O(1)
// amortized time: at most three leading values go through Append (enough for
// stride adoption and run merging to settle), then the remainder extends the
// final run in bulk. Vectors built through ExtendCanonical therefore compare
// Equal to vectors built value-by-value from the same sequence — the
// property the merge's rank-set fast path relies on for byte-stable output.
func (v *Vector) ExtendCanonical(r Run) {
	if r.Count <= 0 {
		return
	}
	if v.nr > 0 {
		// Bulk fast path: the run continues the final run's progression, so
		// every value would extend it — exactly what repeated Append does to
		// a run with Count >= 2 (singletons adopt strides and need the
		// general path below). This is the steady state of the merge's
		// rank-set growth: appending the next contiguous rank block.
		last := v.lastRun()
		if last.Count > 1 && last.Last()+last.Stride == r.First &&
			(r.Count == 1 || r.Stride == last.Stride) {
			last.Count += r.Count
			v.n += r.Count
			return
		}
	}
	lead := r.Count
	if lead > 3 {
		lead = 3
	}
	for i := int64(0); i < lead; i++ {
		v.Append(r.At(i))
	}
	if r.Count <= 3 {
		return
	}
	// After three appends of an arithmetic sequence with stride r.Stride,
	// the final run provably ends at r.At(2) with stride r.Stride, so the
	// remaining values extend it directly.
	last := v.lastRun()
	rest := r.Count - 3
	last.Count += rest
	v.n += rest
}

// Hash folds the vector's canonical structure into h. Vectors that compare
// Equal fold identically: singleton runs fold a zero stride, mirroring
// Equal's stride-insensitivity for Count==1 runs.
func (v *Vector) Hash(h fp.Hash) fp.Hash {
	h = h.Word(uint64(v.n))
	if v.n == 0 {
		// Only the empty vector has n == 0, so the single length word is an
		// injective encoding; skipping the run fold keeps the hot merge
		// fingerprint cheap for the empty Counts/Taken of comm leaves.
		return h
	}
	h = h.Word(uint64(v.nr))
	for _, r := range v.view() {
		s := r.Stride
		if r.Count == 1 {
			s = 0
		}
		h = h.Int(r.First).Int(s).Int(r.Count)
	}
	return h
}

// SetLast replaces the final value of the sequence. It panics when empty.
func (v *Vector) SetLast(x int64) {
	if v.n == 0 {
		panic("stride: SetLast on empty vector")
	}
	last := v.lastRun()
	last.Count--
	v.n--
	if last.Count == 0 {
		v.popRun()
	}
	v.Append(x)
}

// At returns the i-th value. It panics when i is out of range.
//
// The lookup scans runs linearly. Compressed sequences have very few runs —
// that is the point of the encoding — so a scan beats maintaining a prefix
// index, which would cost every Vector a slice header and every mutation a
// dirty bit (rank sets alone allocate one Vector per merge entry).
func (v *Vector) At(i int64) int64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("stride: index %d out of range [0,%d)", i, v.n))
	}
	rem := i
	for _, r := range v.view() {
		if rem < r.Count {
			return r.At(rem)
		}
		rem -= r.Count
	}
	panic("stride: unreachable")
}

// Values materializes the full sequence. Intended for tests and small dumps.
func (v *Vector) Values() []int64 {
	out := make([]int64, 0, v.n)
	for _, r := range v.view() {
		for i := int64(0); i < r.Count; i++ {
			out = append(out, r.At(i))
		}
	}
	return out
}

// Equal reports whether two vectors encode the same sequence. Because both
// encoders are canonical for the same input order, run-wise comparison
// suffices for vectors built through Append.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n || v.nr != o.nr {
		return false
	}
	vr, or := v.view(), o.view()
	for i, r := range vr {
		q := or[i]
		if r.First != q.First || r.Count != q.Count {
			return false
		}
		if r.Count > 1 && r.Stride != q.Stride {
			return false
		}
	}
	return true
}

// Sum returns the sum of all values; used to recover the total event count
// beneath a loop vertex.
func (v *Vector) Sum() int64 {
	var s int64
	for _, r := range v.view() {
		// Sum of arithmetic series: n*first + stride*(0+1+...+(n-1)).
		s += r.Count*r.First + r.Stride*(r.Count-1)*r.Count/2
	}
	return s
}

// SizeBytes estimates the serialized footprint: three varint-ish words per
// run. The constant 8 is a deliberate upper-bound per word so that size
// comparisons between compressors are conservative for CYPRESS.
func (v *Vector) SizeBytes() int64 { return int64(v.nr) * 24 }

// HeapBytes is the heap the vector holds outside its own struct: the spilled
// run storage, by capacity.
func (v *Vector) HeapBytes() int64 { return int64(cap(v.heap)) * int64(unsafe.Sizeof(Run{})) }

// String renders the vector in the paper's tuple notation.
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, r := range v.view() {
		if i > 0 {
			b.WriteByte(' ')
		}
		if r.Count == 1 {
			fmt.Fprintf(&b, "<%d>", r.First)
		} else {
			fmt.Fprintf(&b, "<%d,%d,%d>", r.First, r.Last(), r.Stride)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Set is a strictly-increasing stride-compressed integer set, used for branch
// taken-indices (values are activation numbers) and similar index sets.
type Set struct {
	Vector
}

// Add inserts x, which must be greater than every element already present.
func (s *Set) Add(x int64) {
	var last *Run
	if s.nr > 0 {
		last = s.lastRun()
		if x <= last.Last() {
			panic(fmt.Sprintf("stride: Set.Add out of order: %d after %d", x, last.Last()))
		}
	}
	s.appendAfter(last, x)
}

// Contains reports whether x is in the set using binary search over runs.
func (s *Set) Contains(x int64) bool {
	// Runs are in increasing order of First for a strictly increasing set.
	runs := s.view()
	lo, hi := 0, len(runs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		r := runs[mid]
		switch {
		case x < r.First:
			hi = mid - 1
		case x > r.Last():
			lo = mid + 1
		default:
			if r.Count == 1 {
				return x == r.First
			}
			return (x-r.First)%r.Stride == 0
		}
	}
	return false
}
