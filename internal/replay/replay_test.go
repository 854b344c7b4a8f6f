package replay

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// tee fans a rank's stream to both a raw collector and the compressor.
type tee struct {
	raw  *trace.CollectorSink
	comp *ctt.Compressor
}

func (t tee) LoopEnter(s int32)           { t.comp.LoopEnter(s) }
func (t tee) LoopIter(s int32)            { t.comp.LoopIter(s) }
func (t tee) BranchEnter(s int32, a int8) { t.comp.BranchEnter(s, a) }
func (t tee) BranchSkip(s int32)          { t.comp.BranchSkip(s) }
func (t tee) CallEnter(s int32)           { t.comp.CallEnter(s) }
func (t tee) StructExit()                 { t.comp.StructExit() }
func (t tee) CommSite(s int32)            { t.comp.CommSite(s) }
func (t tee) Event(e *trace.Event)        { t.raw.Event(e); t.comp.Event(e) }
func (t tee) Finalize()                   { t.comp.Finalize() }

// compress runs src on n ranks and returns each rank's raw sequence and
// finished CTT.
func compress(t *testing.T, src string, n int) (raw [][]trace.Event, ctts []*ctt.RankCTT) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	tree, err := cst.Build(prog)
	if err != nil {
		t.Fatalf("cst: %v", err)
	}
	sinks := make([]trace.Sink, n)
	raws := make([]*trace.CollectorSink, n)
	comps := make([]*ctt.Compressor, n)
	for i := range sinks {
		raws[i] = &trace.CollectorSink{}
		comps[i] = ctt.NewCompressor(tree, i, timestat.ModeMeanStddev)
		sinks[i] = tee{raws[i], comps[i]}
	}
	if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
		interp.Execute(prog, r)
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw = make([][]trace.Event, n)
	ctts = make([]*ctt.RankCTT, n)
	for i := range sinks {
		raw[i] = raws[i].Events
		ctts[i] = comps[i].Finish()
	}
	return raw, ctts
}

// roundTrip runs src on n ranks, compresses, decompresses, and returns both
// raw and replayed sequences per rank.
func roundTrip(t *testing.T, src string, n int) (raw [][]trace.Event, rep [][]trace.Event) {
	t.Helper()
	raw, ctts := compress(t, src, n)
	rep = make([][]trace.Event, n)
	for i, c := range ctts {
		seq, err := Sequence(c, i)
		if err != nil {
			t.Fatalf("rank %d replay: %v\n%s", i, err, c.CST.Dump())
		}
		rep[i] = seq
	}
	return raw, rep
}

// TestReplayerStateDense: a walk keeps its per-vertex cursors in slices
// indexed by GID, sized once from the tree, so the number of allocations of
// one walk does not depend on how many leaves, loops and branch sites it
// visits.
func TestReplayerStateDense(t *testing.T) {
	walkAllocs := func(sites int) float64 {
		_, ctts := compress(t, "func main() {\n\tfor var i = 0; i < 3; i = i + 1 {\n"+strings.Repeat(
			"\t\tif i < 2 { barrier(); } else { allreduce(8); }\n\t\tfor var k = 0; k < 2; k = k + 1 { bcast(0, 8); }\n",
			sites)+"\t}\n}", 2)
		src := ctts[0]
		events := 0
		step := func(int32, int, *ctt.CommRecord, int64) error { events++; return nil }
		allocs := testing.AllocsPerRun(10, func() {
			if err := walkSteps(src, 0, step); err != nil {
				t.Fatal(err)
			}
		})
		if want := 11 * (2 + 3*3*sites); events != want { // Init, Finalize, 3 iterations of 3 events per site
			t.Fatalf("%d sites: walked %d events, want %d", sites, events, want)
		}
		return allocs
	}
	few, many := walkAllocs(2), walkAllocs(128)
	if many != few || many > 4 {
		t.Errorf("one walk allocates %.0f objects over 2 sites and %.0f over 128, want the same small number", few, many)
	}
}

func assertLossless(t *testing.T, src string, n int) {
	t.Helper()
	raw, rep := roundTrip(t, src, n)
	for rank := range raw {
		if err := Equivalent(raw[rank], rep[rank]); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestRoundTripStraightLine(t *testing.T) {
	assertLossless(t, `
func main() {
	barrier();
	bcast(0, 1024);
	reduce(0, 8);
}`, 4)
}

func TestRoundTripJacobi(t *testing.T) {
	assertLossless(t, `
func main() {
	for var k = 0; k < 20; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
	}
	reduce(0, 8);
}`, 6)
}

func TestRoundTripNestedVaryingLoops(t *testing.T) {
	assertLossless(t, `
func main() {
	for var i = 0; i < 7; i = i + 1 {
		bcast(0, 64);
		for var j = 0; j < i; j = j + 1 {
			var r1 = isend((rank + 1) % size, 32, j);
			var r2 = irecv((rank + size - 1) % size, 32, j);
			waitall();
			compute(r1 + r2);
		}
	}
}`, 4)
}

func TestRoundTripBranchAlternation(t *testing.T) {
	assertLossless(t, `
func main() {
	for var i = 0; i < 12; i = i + 1 {
		if i % 3 == 0 {
			allreduce(8);
		} else {
			if i % 3 == 1 { barrier(); }
		}
	}
}`, 3)
}

func TestRoundTripUserFunctions(t *testing.T) {
	assertLossless(t, `
func main() {
	for var i = 0; i < 5; i = i + 1 {
		halo();
		halo();
	}
	collect(0);
}
func halo() {
	if rank < size - 1 { send(rank + 1, 100, 1); }
	if rank > 0 { recv(rank - 1, 100, 1); }
}
func collect(root) {
	gather(root, 16);
}`, 5)
}

// TestRoundTripLoopBodyReturns: a loop whose body always returns has no
// back edge, so it heads no natural loop; it must still compile and replay
// exactly, in while and for form, whether the body is comm-free and skipped
// or holds a collective and runs once, and inside a loop that re-enters it.
func TestRoundTripLoopBodyReturns(t *testing.T) {
	for _, src := range []string{`
func main() { var x = find(5); allreduce(8 + x); }
func find(n) { barrier(); while n > 100 { return 0; } return n; }`, `
func main() { var x = find(5); allreduce(8 + x); }
func find(n) { barrier(); for var i = 0; i < n - 100; i = i + 1 { return 0; } return n; }`, `
func main() { var x = find(5); allreduce(8 + x); }
func find(n) { barrier(); while n > 1 { allreduce(16); return 0; } return n; }`, `
func main() { var x = find(5); allreduce(8 + x); }
func find(n) { barrier(); for var i = 0; i < n; i = i + 1 { bcast(0, 32); return 0; } return n; }`, `
func main() {
	for var i = 0; i < 3; i = i + 1 {
		while i > 100 { barrier(); return; }
		allreduce(8);
	}
}`,
	} {
		assertLossless(t, src, 4)
	}
}

func TestRoundTripEarlyReturn(t *testing.T) {
	// The return arm is comm-free; replay must still skip the allreduce on
	// even passes rather than shifting events between iterations.
	assertLossless(t, `
func main() {
	for var i = 0; i < 6; i = i + 1 {
		f(i);
		barrier();
	}
}
func f(n) {
	if n % 2 == 0 { return; }
	allreduce(8);
}`, 2)
}

func TestRoundTripReturnInsideLoop(t *testing.T) {
	assertLossless(t, `
func main() {
	for var i = 0; i < 4; i = i + 1 { f(i); }
	barrier();
}
func f(n) {
	for var j = 0; j < 10; j = j + 1 {
		if j == n { return; }
		bcast(0, 32);
	}
	reduce(0, 8);
}`, 2)
}

func TestRoundTripZeroIterationLoops(t *testing.T) {
	assertLossless(t, `
func main() {
	for var i = 0; i < 5; i = i + 1 {
		for var j = 0; j < i - 3; j = j + 1 {
			barrier();
		}
		allreduce(8);
	}
}`, 2)
}

func TestRoundTripWildcard(t *testing.T) {
	raw, rep := roundTrip(t, `
func main() {
	if rank == 0 {
		for var i = 0; i < size - 1; i = i + 1 {
			recv(ANY, 64, 0);
		}
	} else {
		send(0, 64, 0);
	}
}`, 4)
	for rank := range raw {
		if err := Equivalent(raw[rank], rep[rank]); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestRoundTripNonblockingWildcard(t *testing.T) {
	raw, rep := roundTrip(t, `
func main() {
	if rank == 0 {
		var a = irecv(ANY, 64, 0);
		var b = irecv(ANY, 64, 0);
		var c = irecv(ANY, 64, 0);
		compute(a + b + c);
		waitall();
	} else {
		send(0, 64, 0);
	}
}`, 4)
	// Wildcard resolution order may differ from post order; compare event
	// op/param multisets plus exact op sequence.
	for rank := range raw {
		if len(raw[rank]) != len(rep[rank]) {
			t.Fatalf("rank %d length mismatch", rank)
		}
		for i := range raw[rank] {
			if raw[rank][i].Op != rep[rank][i].Op {
				t.Fatalf("rank %d op sequence differs at %d", rank, i)
			}
		}
		if !samePeerMultiset(raw[rank], rep[rank]) {
			t.Fatalf("rank %d resolved peers differ", rank)
		}
	}
}

func samePeerMultiset(a, b []trace.Event) bool {
	pa, pb := []int{}, []int{}
	for _, e := range a {
		if e.Op == trace.OpRecv || e.Op == trace.OpIrecv {
			pa = append(pa, e.Peer)
		}
	}
	for _, e := range b {
		if e.Op == trace.OpRecv || e.Op == trace.OpIrecv {
			pb = append(pb, e.Peer)
		}
	}
	// Raw wildcard irecvs record AnySource at post time; drop them and
	// compare resolved receives only when lengths allow.
	filter := func(xs []int) []int {
		out := xs[:0]
		for _, x := range xs {
			if x != trace.AnySource {
				out = append(out, x)
			}
		}
		sort.Ints(out)
		return out
	}
	pa, pb = filter(pa), filter(pb)
	if len(pb) < len(pa) {
		return false
	}
	pb = pb[:len(pa)]
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

func TestRoundTripLinearRecursion(t *testing.T) {
	// Pre-call recursion (work before the recursive call) replays exactly.
	assertLossless(t, `
func main() { f(5); barrier(); }
func f(n) {
	if n == 0 { return; }
	bcast(0, 8);
	f(n - 1);
}`, 2)
}

func TestRoundTripPostCallRecursionMultiset(t *testing.T) {
	// Post-call work interleaves across recursion levels; the paper's
	// pseudo-loop conversion makes replay approximate here. The event
	// multiset and count must still match.
	raw, rep := roundTrip(t, `
func main() { f(4); }
func f(n) {
	if n == 0 { return; }
	bcast(0, 8);
	f(n - 1);
	reduce(0, 8);
}`, 2)
	for rank := range raw {
		if len(raw[rank]) != len(rep[rank]) {
			t.Fatalf("rank %d: raw %d vs replayed %d events", rank, len(raw[rank]), len(rep[rank]))
		}
		counts := func(evs []trace.Event) map[trace.Op]int {
			m := map[trace.Op]int{}
			for _, e := range evs {
				m[e.Op]++
			}
			return m
		}
		ca, cb := counts(raw[rank]), counts(rep[rank])
		for op, n := range ca {
			if cb[op] != n {
				t.Fatalf("rank %d: op %v count %d vs %d", rank, op, n, cb[op])
			}
		}
	}
}

func TestRoundTripWhileDoubling(t *testing.T) {
	assertLossless(t, `
func main() {
	var l = 1;
	while l < size {
		var partner = rank + l;
		if partner < size { send(partner % size, 64, 0); }
		var lo = rank - l;
		if lo >= 0 && rank - l < size { recv(rank - l, 64, 0); }
		l = l * 2;
	}
}`, 1)
}

func TestRoundTripDurationsSummarized(t *testing.T) {
	_, rep := roundTrip(t, `
func main() {
	for var i = 0; i < 30; i = i + 1 { allreduce(8); }
}`, 2)
	for _, e := range rep[0] {
		if e.Op == trace.OpAllreduce && e.DurationNS <= 0 {
			t.Fatal("replayed durations must carry the recorded mean")
		}
	}
}

func TestEquivalentDetectsMismatches(t *testing.T) {
	a := []trace.Event{{Op: trace.OpSend, Size: 10, Peer: 1}}
	b := []trace.Event{{Op: trace.OpSend, Size: 10, Peer: 2}}
	if err := Equivalent(a, b); err == nil {
		t.Fatal("peer mismatch not detected")
	}
	if err := Equivalent(a, a[:0]); err == nil {
		t.Fatal("length mismatch not detected")
	}
	c := []trace.Event{{Op: trace.OpRecv, Size: 10, Peer: 1}}
	if err := Equivalent(a, c); err == nil {
		t.Fatal("op mismatch not detected")
	}
}

func TestRoundTripLevelCyclingParams(t *testing.T) {
	// MG-style pattern: one leaf whose size and peer change with the level
	// loop, repeated across V-cycles. Record-cycle folding compresses it;
	// replay must still reproduce the exact sequence.
	assertLossless(t, `
func main() {
	for var it = 0; it < 9; it = it + 1 {
		for var l = 1; l < 5; l = l + 1 {
			if rank + l < size { send(rank + l, 1000 * l, 0); }
			if rank - l >= 0 { recv(rank - l, 1000 * l, 0); }
		}
	}
}`, 6)
}

func TestRoundTripCycleWithPartialTail(t *testing.T) {
	// The cyclic block is interrupted mid-cycle by a trailing phase: the
	// partial repetition must be materialized, not lost.
	assertLossless(t, `
func main() {
	for var it = 0; it < 7; it = it + 1 {
		bcast(0, 100);
		bcast(0, 200);
		bcast(0, 300);
	}
	bcast(0, 100);
	bcast(0, 200);
	allreduce(8);
}`, 2)
}

func TestRoundTripCycleReuseAcrossLeaves(t *testing.T) {
	// The bcast and send leaves fold a three-record cycle, handing their
	// duplicate blocks back to the rank's record arena, while the sibling
	// allreduce leaf creates a record every iteration and so reuses those
	// slots; the loop then ends two records into a repetition, so the cycles
	// close on a partial one.
	src := `
func main() {
	for var k = 0; k < 17; k = k + 1 {
		var l = k % 3 + 1;
		bcast(0, 100 * l);
		if rank + l < size { send(rank + l, 1000 * l, 0); }
		if rank - l >= 0 { recv(rank - l, 1000 * l, 0); }
		allreduce(8 * k);
	}
}`
	for _, n := range []int{2, 6} {
		assertLossless(t, src, n)
	}
}

func TestRoundTripNestedCycles(t *testing.T) {
	// Two separate periodic phases on the same leaf: two cycles in sequence.
	assertLossless(t, `
func main() {
	for var it = 0; it < 6; it = it + 1 {
		bcast(0, 10);
		bcast(0, 20);
	}
	barrier();
	for var it = 0; it < 5; it = it + 1 {
		bcast(0, 30);
		bcast(0, 40);
		bcast(0, 50);
	}
}`, 2)
}

func TestRoundTripWaitsomePartialCompletion(t *testing.T) {
	// Partial completion (paper Section IV-A: MPI_Waitsome etc. recorded via
	// GIDs): the number of requests each waitsome reaps depends on what has
	// arrived once no rank runs, not on the program text, and the recorded
	// trace must replay its own run exactly.
	raw, rep := roundTrip(t, `
func main() {
	var peer = (rank + 1) % size;
	var from = (rank + size - 1) % size;
	for var i = 0; i < 8; i = i + 1 {
		irecv(from, 128, i);
		isend(peer, 128, i);
		var done = 0;
		while done < 2 {
			done = done + waitsome();
		}
	}
}`, 4)
	for rank := range raw {
		if err := Equivalent(raw[rank], rep[rank]); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestRoundTripTestany(t *testing.T) {
	raw, rep := roundTrip(t, `
func main() {
	var peer = (rank + 1) % size;
	var from = (rank + size - 1) % size;
	irecv(from, 64, 0);
	send(peer, 64, 0);
	var got = 0;
	while got == 0 {
		got = testany();
	}
}`, 3)
	for rank := range raw {
		if err := Equivalent(raw[rank], rep[rank]); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}
