package cst

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/npb"
	"repro/internal/trace"
)

func build(t testing.TB, src string) *Tree {
	t.Helper()
	tree, err := Build(checked(t, src))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return tree
}

// TestBuildRefusesUncheckedProgram: Build reads the resolution lang.Check
// writes into the AST, so a program that was only parsed is an error.
func TestBuildRefusesUncheckedProgram(t *testing.T) {
	prog, err := lang.Parse(`func main() { barrier(); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(prog); err == nil || !strings.Contains(err.Error(), "not checked") {
		t.Fatalf("Build of an unchecked program: err = %v", err)
	}
}

// Paper Figure 5.
const fig5Src = `
func main() {
	for var i = 0; i < 4; i = i + 1 {
		if rank % 2 == 0 {
			send(rank + 1, 64, 0);
		} else {
			recv(rank - 1, 64, 0);
		}
		bar();
	}
	foo();
	if rank % 2 == 0 {
		reduce(0, 8);
	}
}
func bar() {
	for var k = 0; k < 3; k = k + 1 {
		bcast(0, 64);
	}
}
func foo() {
	var sum = 0;
	for var j = 0; j < 5; j = j + 1 {
		sum = sum + j;
	}
}
`

func TestFig5CompleteCST(t *testing.T) {
	tree := build(t, fig5Src)
	// Paper Figure 7 (with call vertices retained): Root{ Loop{ Br0{Send},
	// Br1{Recv}, Call bar{ Loop{Bcast} } }, Br0{Reduce} }.
	// foo() is comm-free and must be pruned entirely.
	st := tree.Stats()
	if st.CommLeaves != 4 {
		t.Fatalf("comm leaves = %d, want 4\n%s", st.CommLeaves, tree.Dump())
	}
	if st.Loops != 2 {
		t.Fatalf("loops = %d, want 2\n%s", st.Loops, tree.Dump())
	}
	if st.Branches != 3 {
		t.Fatalf("branches = %d, want 3\n%s", st.Branches, tree.Dump())
	}
	if st.Calls != 1 {
		t.Fatalf("calls = %d, want 1 (bar)\n%s", st.Calls, tree.Dump())
	}
	if strings.Contains(tree.Dump(), "foo") {
		t.Fatalf("comm-free foo not pruned:\n%s", tree.Dump())
	}
	// Pre-order GIDs are dense and match ByGID.
	for i, v := range tree.ByGID {
		if v.GID != int32(i) {
			t.Fatalf("ByGID[%d].GID = %d", i, v.GID)
		}
	}
	// Root's first child is the outer loop; its children in order are
	// Br0, Br1, Call(bar).
	loop := tree.Root.Children[0]
	if loop.Kind != KindLoop {
		t.Fatalf("first child = %v", loop.Kind)
	}
	kinds := []Kind{}
	for _, c := range loop.Children {
		kinds = append(kinds, c.Kind)
	}
	if len(kinds) != 3 || kinds[0] != KindBranch || kinds[1] != KindBranch || kinds[2] != KindCall {
		t.Fatalf("loop children = %v\n%s", kinds, tree.Dump())
	}
	if loop.Children[0].Arm != 0 || loop.Children[1].Arm != 1 {
		t.Fatal("branch arms mislabeled")
	}
	// Send under then-arm, Recv under else-arm.
	if loop.Children[0].Children[0].Op != trace.OpSend {
		t.Fatal("then arm must contain send")
	}
	if loop.Children[1].Children[0].Op != trace.OpRecv {
		t.Fatal("else arm must contain recv")
	}
	// bar's loop contains the bcast.
	barLoop := loop.Children[2].Children[0]
	if barLoop.Kind != KindLoop || barLoop.Children[0].Op != trace.OpBcast {
		t.Fatalf("bar expansion wrong:\n%s", tree.Dump())
	}
	// Second top-level child: branch arm 0 holding reduce (no else arm since
	// there is no else).
	br := tree.Root.Children[1]
	if br.Kind != KindBranch || br.Arm != 0 || br.Children[0].Op != trace.OpReduce {
		t.Fatalf("trailing branch wrong:\n%s", tree.Dump())
	}
}

func TestChildLookup(t *testing.T) {
	tree := build(t, fig5Src)
	loop := tree.Root.Children[0]
	if got := tree.Root.Child(loop.Site, NoArm); got != loop {
		t.Fatal("Child lookup failed for loop")
	}
	arm0 := loop.Children[0]
	if got := loop.Child(arm0.Site, 0); got != arm0 {
		t.Fatal("Child lookup failed for arm 0")
	}
	if got := loop.Child(arm0.Site, 1); got != loop.Children[1] {
		t.Fatal("Child lookup failed for arm 1")
	}
	if loop.Child(12345, NoArm) != nil {
		t.Fatal("lookup of unknown site must be nil")
	}
}

func TestPruneBranchArmWithoutComm(t *testing.T) {
	tree := build(t, `
func main() {
	if rank == 0 {
		send(1, 8, 0);
	} else {
		var x = 1;
		compute(x);
	}
}`)
	// Only arm 0 survives.
	if len(tree.Root.Children) != 1 {
		t.Fatalf("children = %d\n%s", len(tree.Root.Children), tree.Dump())
	}
	if tree.Root.Children[0].Arm != 0 {
		t.Fatal("surviving arm must be arm 0")
	}
}

func TestPruneCommFreeProgramLeavesRootOnly(t *testing.T) {
	tree := build(t, `func main() { var x = 1; compute(x); }`)
	if tree.NumVertices() != 1 || len(tree.Root.Children) != 0 {
		t.Fatalf("comm-free program should prune to bare root:\n%s", tree.Dump())
	}
}

func TestSelfRecursionPseudoLoop(t *testing.T) {
	// Paper Figure 8 shape: recursion becomes a pseudo-loop; internal
	// recursive calls become loop-back vertices.
	tree := build(t, `
func main() { f(3); }
func f(n) {
	if n == 0 { return; }
	if n > 1 {
		bcast(0, 8);
		reduce(0, 8);
		f(n - 1);
	} else {
		bcast(0, 8);
		f(n - 1);
		reduce(0, 8);
	}
}`)
	callF := tree.Root.Children[0]
	if callF.Kind != KindCall || !callF.Recursive {
		t.Fatalf("f call site must be a recursive (pseudo-loop) vertex:\n%s", tree.Dump())
	}
	st := tree.Stats()
	if st.RecCalls != 2 {
		t.Fatalf("rec calls = %d, want 2\n%s", st.RecCalls, tree.Dump())
	}
	// Every RecCall targets the pseudo-loop call vertex.
	tree.Walk(func(v *Vertex, _ int) {
		if v.Kind == KindRecCall && v.Target != callF {
			t.Fatalf("RecCall target = GID %d, want %d", v.Target.GID, callF.GID)
		}
	})
	if st.CommLeaves != 4 {
		t.Fatalf("comm leaves = %d, want 4\n%s", st.CommLeaves, tree.Dump())
	}
}

func TestMutualRecursion(t *testing.T) {
	tree := build(t, `
func main() { ping(4); }
func ping(n) { if n > 0 { send(1, 8, 0); pong(n - 1); } }
func pong(n) { if n > 0 { recv(0, 8, 0); ping(n - 1); } }`)
	st := tree.Stats()
	if st.RecCalls != 1 {
		t.Fatalf("rec calls = %d, want 1 (pong->ping)\n%s", st.RecCalls, tree.Dump())
	}
	// ping is expanded once under main, pong once under ping; pong's call to
	// ping loops back to ping's call vertex.
	var recCall *Vertex
	tree.Walk(func(v *Vertex, _ int) {
		if v.Kind == KindRecCall {
			recCall = v
		}
	})
	if recCall.Callee != "ping" || recCall.Target.Callee != "ping" || !recCall.Target.Recursive {
		t.Fatalf("rec call wiring wrong:\n%s", tree.Dump())
	}
}

func TestRepeatedCallSitesGetDistinctSubtrees(t *testing.T) {
	tree := build(t, `
func main() { halo(); halo(); }
func halo() { send(rank + 1, 8, 0); recv(rank - 1, 8, 0); }`)
	if len(tree.Root.Children) != 2 {
		t.Fatalf("want two call vertices:\n%s", tree.Dump())
	}
	a, b := tree.Root.Children[0], tree.Root.Children[1]
	if a.Site == b.Site {
		t.Fatal("distinct call sites must have distinct Site ids")
	}
	if len(a.Children) != 2 || len(b.Children) != 2 {
		t.Fatal("each call vertex owns a full copy of the callee tree")
	}
}

func TestCallsInsideConditionArgumentsAndPost(t *testing.T) {
	tree := build(t, `
func main() {
	for var i = 0; i < 3; i = next(i) {
		compute(1);
	}
}
func next(i) { allreduce(8); return i + 1; }`)
	// next() runs per iteration inside the loop vertex.
	loop := tree.Root.Children[0]
	if loop.Kind != KindLoop {
		t.Fatalf("want loop first:\n%s", tree.Dump())
	}
	if len(loop.Children) != 1 || loop.Children[0].Kind != KindCall || loop.Children[0].Callee != "next" {
		t.Fatalf("post call must live inside the loop:\n%s", tree.Dump())
	}
}

// TestCallsHoistedInEvaluationOrder: calls in one expression become call
// vertices in evaluation order, arguments before the call that consumes them.
func TestCallsHoistedInEvaluationOrder(t *testing.T) {
	tree := build(t, `
func main() { var x = g(h(1)) + h(2); compute(x); }
func g(a) { barrier(); return a; }
func h(a) { allreduce(8); return a; }`)
	var names []string
	tree.Walk(func(v *Vertex, _ int) {
		if v.Kind == KindCall {
			names = append(names, v.Callee)
		}
	})
	if got := strings.Join(names, " "); got != "h g h" {
		t.Fatalf("call vertices = %q, want \"h g h\"\n%s", got, tree.Dump())
	}
}

func TestReturnStopsExpansion(t *testing.T) {
	tree := build(t, `
func main() { f(); }
func f() {
	barrier();
	return;
	send(1, 8, 0);
}`)
	st := tree.Stats()
	if st.CommLeaves != 1 {
		t.Fatalf("unreachable send must not appear:\n%s", tree.Dump())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, src := range []string{fig5Src, `
func main() { f(2); }
func f(n) { if n > 0 { bcast(0, 8); f(n - 1); } }`} {
		tree := build(t, src)
		var buf bytes.Buffer
		if err := tree.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("decode: %v\n%s", err, tree.Dump())
		}
		if got.Hash() != tree.Hash() {
			t.Fatalf("hash mismatch after round trip:\n%s\nvs\n%s", tree.Dump(), got.Dump())
		}
		if got.NumVertices() != tree.NumVertices() {
			t.Fatal("vertex count changed")
		}
		// Child lookup still works on the decoded tree.
		if len(got.Root.Children) > 0 {
			c := got.Root.Children[0]
			if got.Root.Child(c.Site, c.Arm) != c {
				t.Fatal("decoded tree lost child index")
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	const oneVertex = "CYPRESS-CST v1 1 main\n0 0 -1 -1 0 0 0 -1 \"\"\n0\n"
	if _, err := Decode([]byte(oneVertex)); err != nil {
		t.Fatalf("Decode(%q): %v", oneVertex, err)
	}
	cases := []string{
		"",
		"WRONG MAGIC\n",
		"CYPRESS-CST v1 nonsense\n",
		"CYPRESS-CST v1 99999999999 main\n",
		"CYPRESS-CST v1 2 main\n0 0 -1 -1 0 0 -1 \"\"\n1\n", // truncated: missing child
		oneVertex + "x\n", // bytes after the last vertex
	}
	for _, s := range cases {
		if _, err := Decode([]byte(s)); err == nil {
			t.Errorf("Decode(%q) should fail", s)
		}
	}
}

func TestHashDiffersForDifferentPrograms(t *testing.T) {
	a := build(t, `func main() { send(1, 8, 0); }`)
	b := build(t, `func main() { recv(1, 8, 0); }`)
	if a.Hash() == b.Hash() {
		t.Fatal("different programs should hash differently")
	}
}

func TestDumpMentionsStructure(t *testing.T) {
	tree := build(t, fig5Src)
	d := tree.Dump()
	for _, frag := range []string{"Root", "Loop", "Br[arm 0]", "Br[arm 1]", "Comm:MPI_Send", "Call:bar"} {
		if !strings.Contains(d, frag) {
			t.Fatalf("Dump missing %q:\n%s", frag, d)
		}
	}
}

func TestJacobiShape(t *testing.T) {
	// Paper Figure 3: one loop with four single-arm branches.
	tree := build(t, `
func main() {
	for var k = 0; k < 10; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
	}
}`)
	loop := tree.Root.Children[0]
	if len(loop.Children) != 4 {
		t.Fatalf("want 4 branch arms:\n%s", tree.Dump())
	}
	for _, c := range loop.Children {
		if c.Kind != KindBranch || len(c.Children) != 1 || c.Children[0].Kind != KindComm {
			t.Fatalf("jacobi arm malformed:\n%s", tree.Dump())
		}
	}
}

// TestTreeHashMemoMatchesRecompute: Hash walks a tree once and remembers the
// answer, and the answer is the walk's — on every way a tree comes to be
// (Build, Decode, by hand), asked once or many times, from one goroutine or
// several. The values themselves are pinned where they are serialized (the
// golden traces, cypressstat's fingerprint golden).
func TestTreeHashMemoMatchesRecompute(t *testing.T) {
	trees := map[string]*Tree{
		"fig5":    build(t, fig5Src),
		"literal": handTree(arm(1, 0), arm(1, 1), comm(7)),
	}
	for _, w := range npb.All() {
		n := 16
		if !w.ValidProcs(n) {
			t.Fatalf("%s does not run on %d ranks", w.Name, n)
		}
		trees[w.Name] = build(t, w.Source(n, npb.Small))
	}
	if len(trees) != 11 {
		t.Fatalf("%d trees, want the nine npb skeletons and two more", len(trees))
	}
	seen := map[uint64]string{}
	for name, tree := range trees {
		want := tree.computeHash()
		decoded, err := Decode(encoded(t, tree))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, tr := range []*Tree{tree, decoded} {
					if got := tr.Hash(); got != want {
						t.Errorf("%s: Hash() = %x, the walk gives %x", name, got, want)
					}
				}
			}()
		}
		wg.Wait()
		if got := decoded.computeHash(); got != want {
			t.Errorf("%s: decoded tree walks to %x, the original to %x", name, got, want)
		}
		if other, dup := seen[want]; dup {
			t.Errorf("%s and %s share hash %x", name, other, want)
		}
		seen[want] = name
	}
}

// TestMarkSitesRejectsContextDependentSite: a site pruned in one expansion
// and kept in another cannot be marked, so Build fails rather than hand the
// runtime a marker the compressor could place in only one context.
func TestMarkSitesRejectsContextDependentSite(t *testing.T) {
	loop := &lang.ForStmt{}
	err := markSites([]siteVertex{
		{loop, &Vertex{Kind: KindLoop, Arm: NoArm, hasComm: true}},
		{loop, &Vertex{Kind: KindLoop, Arm: NoArm}},
	})
	if err == nil || !strings.Contains(err.Error(), "kept in one calling context and pruned in another") {
		t.Fatalf("err = %v", err)
	}
}
