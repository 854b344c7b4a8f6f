package interp

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cst"
	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/trace"
)

// markerSink records both structure markers and events as a flat script, so
// tests can assert the exact instrumentation protocol.
type markerSink struct {
	script []string
}

func (m *markerSink) LoopEnter(site int32) { m.script = append(m.script, fmt.Sprintf("L+%d", site)) }
func (m *markerSink) LoopIter(site int32)  { m.script = append(m.script, fmt.Sprintf("I%d", site)) }
func (m *markerSink) BranchEnter(site int32, a int8) {
	m.script = append(m.script, fmt.Sprintf("B+%d/%d", site, a))
}
func (m *markerSink) BranchSkip(site int32) { m.script = append(m.script, fmt.Sprintf("B0%d", site)) }
func (m *markerSink) CallEnter(site int32)  { m.script = append(m.script, fmt.Sprintf("C+%d", site)) }
func (m *markerSink) StructExit()           { m.script = append(m.script, "X") }
func (m *markerSink) CommSite(int32)        {}
func (m *markerSink) Event(e *trace.Event)  { m.script = append(m.script, e.Op.String()) }
func (m *markerSink) Finalize()             { m.script = append(m.script, "FIN") }

// compile parses and checks src and builds its CST, which marks the sites
// the interpreter brackets with structure markers.
func compile(tb testing.TB, src string) *lang.Program {
	tb.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := lang.Check(prog); err != nil {
		tb.Fatal(err)
	}
	if _, err := cst.Build(prog); err != nil {
		tb.Fatal(err)
	}
	return prog
}

func runMarked(t *testing.T, src string, n int) []*markerSink {
	t.Helper()
	prog := compile(t, src)
	sinks := make([]trace.Sink, n)
	ms := make([]*markerSink, n)
	for i := range sinks {
		ms[i] = &markerSink{}
		sinks[i] = ms[i]
	}
	if _, err := mpisim.Run(n, mpisim.Params{}, sinks, func(r *mpisim.Rank) { Execute(prog, r) }); err != nil {
		t.Fatalf("run: %v", err)
	}
	return ms
}

func countOf(script []string, tok string) int {
	n := 0
	for _, s := range script {
		if s == tok {
			n++
		}
	}
	return n
}

func TestLoopMarkerProtocol(t *testing.T) {
	ms := runMarked(t, `
func main() {
	for var i = 0; i < 3; i = i + 1 {
		barrier();
	}
}`, 1)
	script := strings.Join(ms[0].script, " ")
	// Init, LoopEnter, 3x (Iter Barrier), Exit, Finalize event + FIN.
	want := "MPI_Init L+"
	if !strings.HasPrefix(script, "MPI_Init L") {
		t.Fatalf("script = %s (want prefix %q)", script, want)
	}
	if got := countOf(ms[0].script, "MPI_Barrier"); got != 3 {
		t.Fatalf("barriers = %d", got)
	}
	iters := 0
	for _, s := range ms[0].script {
		if strings.HasPrefix(s, "I") {
			iters++
		}
	}
	if iters != 3 {
		t.Fatalf("loop iters = %d, want 3", iters)
	}
	if got := countOf(ms[0].script, "X"); got != 1 {
		t.Fatalf("struct exits = %d, want 1", got)
	}
}

func TestZeroIterationLoopStillBracketted(t *testing.T) {
	ms := runMarked(t, `
func main() {
	for var i = 0; i < 0; i = i + 1 {
		barrier();
	}
	allreduce(8);
}`, 1)
	s := ms[0].script
	// LoopEnter immediately followed by StructExit, no iterations.
	joined := strings.Join(s, " ")
	if !strings.Contains(joined, "L+") || countOf(s, "X") != 1 {
		t.Fatalf("script = %v", s)
	}
	for _, tok := range s {
		if strings.HasPrefix(tok, "I") && tok != "MPI_Init" {
			t.Fatalf("unexpected iteration marker in %v", s)
		}
	}
	if countOf(s, "MPI_Allreduce") != 1 {
		t.Fatalf("allreduce missing: %v", s)
	}
}

func TestBranchMarkersAndSkip(t *testing.T) {
	ms := runMarked(t, `
func main() {
	for var i = 0; i < 4; i = i + 1 {
		if i % 2 == 0 {
			barrier();
		}
	}
}`, 1)
	s := ms[0].script
	taken, skipped := 0, 0
	for _, tok := range s {
		if strings.HasPrefix(tok, "B+") {
			taken++
		}
		if strings.HasPrefix(tok, "B0") {
			skipped++
		}
	}
	if taken != 2 || skipped != 2 {
		t.Fatalf("taken=%d skipped=%d script=%v", taken, skipped, s)
	}
}

func TestElseArmMarker(t *testing.T) {
	ms := runMarked(t, `
func main() {
	if rank == 0 { barrier(); } else { barrier(); }
}`, 2)
	if !strings.Contains(strings.Join(ms[0].script, " "), "/0") {
		t.Fatalf("rank 0 should take arm 0: %v", ms[0].script)
	}
	if !strings.Contains(strings.Join(ms[1].script, " "), "/1") {
		t.Fatalf("rank 1 should take arm 1: %v", ms[1].script)
	}
}

// TestOnlyKeptSitesMarked checks that structures the CST pruned run without
// markers, and that taking the pruned arm of a kept if arrives as BranchSkip.
func TestOnlyKeptSitesMarked(t *testing.T) {
	ms := runMarked(t, `
func main() {
	for var i = 0; i < 2; i = i + 1 { compute(1); }
	idle();
	if rank == 0 { compute(1); } else { send(0, 8, 0); }
	if rank == 0 { recv(1, 8, 0); }
}
func idle() { var n = 2; while n > 0 { n = n - 1; } }`, 2)
	for rank, want := range []string{
		`^MPI_Init B0\d+ B\+\d+/0 MPI_Recv X MPI_Finalize FIN$`,
		`^MPI_Init B\+\d+/1 MPI_Send X B0\d+ MPI_Finalize FIN$`,
	} {
		if got := strings.Join(ms[rank].script, " "); !regexp.MustCompile(want).MatchString(got) {
			t.Errorf("rank %d script = %s, want %s", rank, got, want)
		}
	}
}

func TestCallMarkersBracketBody(t *testing.T) {
	ms := runMarked(t, `
func main() { f(); }
func f() { barrier(); }`, 1)
	joined := strings.Join(ms[0].script, " ")
	if !strings.Contains(joined, "C+") {
		t.Fatalf("no call marker: %v", ms[0].script)
	}
	// MPI_Barrier must appear between C+ and the matching X.
	var ci, bi int
	for i, tok := range ms[0].script {
		if strings.HasPrefix(tok, "C+") {
			ci = i
		}
		if tok == "MPI_Barrier" {
			bi = i
		}
	}
	if bi < ci {
		t.Fatalf("event outside call bracket: %v", ms[0].script)
	}
}

func TestMarkersBalanced(t *testing.T) {
	ms := runMarked(t, `
func main() {
	for var i = 0; i < 3; i = i + 1 {
		if i == 1 { f(i); } else { barrier(); }
	}
}
func f(n) {
	while n > 0 {
		barrier();
		n = n - 1;
	}
	if n == 0 { return; }
	barrier();
}`, 1)
	depth := 0
	for _, tok := range ms[0].script {
		if strings.HasPrefix(tok, "L+") || strings.HasPrefix(tok, "B+") || strings.HasPrefix(tok, "C+") {
			depth++
		}
		if tok == "X" {
			depth--
			if depth < 0 {
				t.Fatalf("unbalanced exits: %v", ms[0].script)
			}
		}
	}
	if depth != 0 {
		t.Fatalf("depth = %d at end: %v", depth, ms[0].script)
	}
}

func TestEarlyReturnUnwindsMarkers(t *testing.T) {
	ms := runMarked(t, `
func main() { f(); barrier(); }
func f() {
	for var i = 0; i < 10; i = i + 1 {
		if i == 2 { return; }
		barrier();
	}
}`, 1)
	// Loop iterated 3 times (i=0,1,2) then returned.
	iters := 0
	depth := 0
	for _, tok := range ms[0].script {
		if strings.HasPrefix(tok, "I") && tok != "MPI_Init" {
			iters++
		}
		if strings.HasPrefix(tok, "L+") || strings.HasPrefix(tok, "B+") || strings.HasPrefix(tok, "C+") {
			depth++
		}
		if tok == "X" {
			depth--
		}
	}
	if iters != 3 {
		t.Fatalf("iterations = %d, want 3: %v", iters, ms[0].script)
	}
	if depth != 0 {
		t.Fatalf("markers unbalanced after early return: %v", ms[0].script)
	}
	if countOf(ms[0].script, "MPI_Barrier") != 3 {
		t.Fatalf("barriers = %d, want 2 in loop + 1 after", countOf(ms[0].script, "MPI_Barrier"))
	}
}

func TestJacobiEndToEnd(t *testing.T) {
	src := `
func main() {
	for var k = 0; k < 5; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
		compute(1000);
	}
	reduce(0, 8);
}`
	n := 8
	sinks := make([]trace.Sink, n)
	cols := make([]*trace.CollectorSink, n)
	for i := range sinks {
		cols[i] = &trace.CollectorSink{}
		sinks[i] = cols[i]
	}
	tot, err := RunProgram(src, n, mpisim.DefaultParams(), sinks)
	if err != nil {
		t.Fatal(err)
	}
	if tot <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	// Interior ranks: Init + 5*(2 sends + 2 recvs) + reduce + finalize = 23.
	if got := len(cols[3].Events); got != 23 {
		t.Fatalf("interior rank events = %d, want 23", got)
	}
	// Boundary ranks: Init + 5*(1 send + 1 recv) + reduce + finalize = 13.
	if got := len(cols[0].Events); got != 13 {
		t.Fatalf("rank 0 events = %d, want 13", got)
	}
}

func TestRecursionExecution(t *testing.T) {
	ms := runMarked(t, `
func main() { f(3); }
func f(n) {
	if n == 0 { return; }
	bcast(0, 8);
	f(n - 1);
}`, 1)
	if got := countOf(ms[0].script, "MPI_Bcast"); got != 3 {
		t.Fatalf("bcasts = %d, want 3", got)
	}
}

func TestNonblockingAndRequestValues(t *testing.T) {
	src := `
func main() {
	var r1 = isend((rank + 1) % size, 64, 0);
	var r2 = irecv((rank + size - 1) % size, 64, 0);
	wait(r2);
	wait(r1);
}`
	n := 4
	sinks := make([]trace.Sink, n)
	cols := make([]*trace.CollectorSink, n)
	for i := range sinks {
		cols[i] = &trace.CollectorSink{}
		sinks[i] = cols[i]
	}
	if _, err := RunProgram(src, n, mpisim.Params{}, sinks); err != nil {
		t.Fatal(err)
	}
	ev := cols[0].Events
	// Init, Isend, Irecv, Wait, Wait, Finalize.
	ops := []trace.Op{trace.OpInit, trace.OpIsend, trace.OpIrecv, trace.OpWait, trace.OpWait, trace.OpFinalize}
	for i, op := range ops {
		if ev[i].Op != op {
			t.Fatalf("event %d = %v, want %v", i, ev[i].Op, op)
		}
	}
	if ev[3].Reqs[0] != 1 || ev[4].Reqs[0] != 0 {
		t.Fatalf("wait order wrong: %v %v", ev[3].Reqs, ev[4].Reqs)
	}
}

func TestWildcardProgram(t *testing.T) {
	src := `
func main() {
	if rank == 0 {
		for var i = 0; i < size - 1; i = i + 1 {
			recv(ANY, 32, 5);
		}
	} else {
		send(0, 32, 5);
	}
}`
	n := 5
	sinks := make([]trace.Sink, n)
	cols := make([]*trace.CollectorSink, n)
	for i := range sinks {
		cols[i] = &trace.CollectorSink{}
		sinks[i] = cols[i]
	}
	if _, err := RunProgram(src, n, mpisim.Params{}, sinks); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, e := range cols[0].Events {
		if e.Op == trace.OpRecv {
			if !e.Wildcard {
				t.Fatal("wildcard flag lost")
			}
			seen[e.Peer] = true
		}
	}
	if len(seen) != n-1 {
		t.Fatalf("matched %d distinct sources, want %d", len(seen), n-1)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		`func main() { var x = 1 / (rank - rank); compute(x); }`: "division by zero",
		`func main() { var x = 1 % (rank * 0); compute(x); }`:    "modulo by zero",
		`func main() { send(0, 0 - 5, 0); }`:                     "size",
		`func main() { wait(42); }`:                              "unknown request",
		`func main() { var x = log2(0); compute(x); }`:           "log2",
	}
	for src, want := range cases {
		_, err := RunProgram(src, 1, mpisim.Params{}, nil)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RunProgram(%q) err = %v, want %q", src, err, want)
		}
	}
}

func TestBuiltinHelpers(t *testing.T) {
	src := `
func main() {
	var a = min(3, 7) + max(3, 7) * 10 + log2(1024);
	if a != 3 + 70 + 10 { send(0, 0 - 1, 0); }
	compute(a);
}`
	if _, err := RunProgram(src, 1, mpisim.Params{}, nil); err != nil {
		t.Fatalf("helper arithmetic wrong: %v", err)
	}
}

func TestWhileLoopExecution(t *testing.T) {
	ms := runMarked(t, `
func main() {
	var l = 1;
	while l < size {
		allreduce(8);
		l = l * 2;
	}
}`, 8)
	if got := countOf(ms[0].script, "MPI_Allreduce"); got != 3 {
		t.Fatalf("allreduces = %d, want log2(8)=3", got)
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	if _, err := RunProgram("func main( {", 1, mpisim.Params{}, nil); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := RunProgram("func notmain() { }", 1, mpisim.Params{}, nil); err == nil {
		t.Fatal("check error not surfaced")
	}
}

// runChecked parses and checks src, failing the test on an error.
func runChecked(t testing.TB, src string, n int, sinks []trace.Sink) {
	t.Helper()
	if _, err := RunProgram(src, n, mpisim.Params{}, sinks); err != nil {
		t.Fatalf("RunProgram: %v", err)
	}
}

// computed returns the compute(x) arguments rank 0 ran, in order: each
// compute advances the clock by exactly its argument under zero noise, and
// the next event's ComputeNS is the sum since the previous one, so every
// compute is followed by a barrier to read it back alone.
func computed(t *testing.T, src string) []int64 {
	t.Helper()
	col := &trace.CollectorSink{}
	runChecked(t, src, 1, []trace.Sink{col})
	var got []int64
	for _, e := range col.Events {
		if e.Op == trace.OpBarrier {
			got = append(got, int64(e.ComputeNS))
		}
	}
	return got
}

func TestSlotResolution(t *testing.T) {
	cases := []struct {
		name, src string
		want      []int64
	}{
		{"shadowing in an inner block", `
func main() {
	var x = 1;
	if x > 0 {
		var x = 2;
		x = x + 10;
		compute(x); barrier();
	}
	compute(x); barrier();
}`, []int64{12, 1}},
		{"outer read before inner var of the same name", `
func main() {
	var x = 5;
	{
		compute(x); barrier();
		var x = x + 1;
		compute(x); barrier();
	}
	compute(x); barrier();
}`, []int64{5, 6, 5}},
		{"sibling blocks and consecutive loops reuse slots", `
func main() {
	var keep = 7;
	{ var a = 100; compute(a); barrier(); }
	{ var b = 3; compute(b + keep); barrier(); }
	for var i = 0; i < 2; i = i + 1 { var s = i * 10; compute(s + 1); barrier(); }
	for var j = 5; j < 6; j = j + 1 { compute(j); barrier(); }
	compute(keep); barrier();
}`, []int64{100, 10, 1, 11, 5, 7}},
		{"parameters and a callee's own frame", `
func add(a, b) { var s = a + b; return s; }
func main() {
	var s = 40;
	var t = add(s, 2);
	compute(t); barrier();
	compute(s); barrier();
}`, []int64{42, 40}},
		{"each recursive activation has its own frame", `
func fact(n) {
	var here = n;
	if n <= 1 { return 1; }
	var rest = fact(n - 1);
	return here * rest;
}
func main() { compute(fact(5)); barrier(); }`, []int64{120}},
		{"arguments evaluated across nested calls", `
func pair(a, b) { return a * 100 + b; }
func inc(x) { var y = x + 1; return y; }
func main() { compute(pair(inc(1), inc(inc(3)))); barrier(); }`, []int64{205}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := computed(t, c.src)
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("computed %v, want %v", got, c.want)
			}
		})
	}
}

func TestExecuteUncheckedPanics(t *testing.T) {
	prog, err := lang.Parse(`func main() { var x = 1; compute(x); }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpisim.Run(1, mpisim.Params{}, nil, func(r *mpisim.Rank) { Execute(prog, r) })
	if err == nil || !strings.Contains(err.Error(), "run lang.Check before Execute") {
		t.Fatalf("unchecked program: err = %v", err)
	}
}

func TestWaitOnCompletedRequestFails(t *testing.T) {
	for _, done := range []string{"waitsome()", "testany()", "wait(h)"} {
		src := fmt.Sprintf(`
func main() {
	var h = isend(rank, 8, 0);
	recv(rank, 8, 0);
	var n = %s;
	wait(h);
}`, strings.Replace(done, "wait(h)", "0; wait(h)", 1))
		_, err := RunProgram(src, 1, mpisim.Params{}, nil)
		if err == nil || !strings.Contains(err.Error(), "unknown request") || !strings.Contains(err.Error(), "6:") {
			t.Errorf("wait after %s: err = %v, want a positioned unknown-request error", done, err)
		}
	}
}

func TestRequestTableHoldsOnlyPending(t *testing.T) {
	prog, err := lang.Parse(`
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
	irecv(from, 8, 99);
	send(peer, 8, 99);
	var got = 0;
	while got == 0 { got = testany(); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	const n = 4
	left := make([]int, n)
	if _, err := mpisim.Run(n, mpisim.Params{}, nil, func(r *mpisim.Rank) {
		ex := newExecutor(r)
		r.Init()
		ex.callUser(prog.ByName["main"], 0)
		left[r.ID()] = len(ex.pending)
		r.Finalize()
	}); err != nil {
		t.Fatal(err)
	}
	for rank, k := range left {
		if k != 0 {
			t.Errorf("rank %d: %d completed handles left in the request table", rank, k)
		}
	}
}

// TestLoopBodyAllocs budgets the steady state of the slot stack: once it has
// grown to the deepest frame, a loop body of var, assign, arithmetic and one
// user call allocates nothing per iteration.
func TestLoopBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	src := `
func sq(v) { var w = v * v; return w; }
func main() {
	var acc = 0;
	for var i = 0; i < %d; i = i + 1 {
		var x = i + 1;
		acc = acc + sq(x) %% 7;
	}
}`
	measure := func(iters int) float64 {
		prog, err := lang.Parse(fmt.Sprintf(src, iters))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lang.Check(prog); err != nil {
			t.Fatal(err)
		}
		var allocs float64
		if _, err := mpisim.Run(1, mpisim.Params{}, []trace.Sink{trace.NopSink{}}, func(r *mpisim.Rank) {
			ex := newExecutor(r)
			allocs = testing.AllocsPerRun(20, func() { ex.callUser(prog.ByName["main"], 0) })
		}); err != nil {
			t.Fatal(err)
		}
		return allocs
	}
	if short, long := measure(10), measure(1010); long != short {
		t.Fatalf("1000 more iterations allocate %v more (%v vs %v), want 0", long-short, long, short)
	}
}

// eventCounter discards the stream and counts its events.
type eventCounter struct {
	trace.NopSink
	n *int64
}

func (c eventCounter) Event(*trace.Event) { *c.n++ }

// BenchmarkLiveRun times the untraced run the paper's overhead divides by:
// the interpreter and the MPI runtime on 64 ranks, the sink discarding the
// markers of the sites the CST keeps.
func BenchmarkLiveRun(b *testing.B) {
	for _, name := range []string{"SP", "MG", "CG"} {
		b.Run(name, func(b *testing.B) {
			const n = 64
			prog := compile(b, npb.Get(name).Source(n, npb.Paper))
			counts := make([]int64, n)
			sinks := make([]trace.Sink, n)
			for i := range sinks {
				sinks[i] = eventCounter{n: &counts[i]}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) { Execute(prog, r) }); err != nil {
					b.Fatal(err)
				}
			}
			var events int64
			for _, c := range counts {
				events += c
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
