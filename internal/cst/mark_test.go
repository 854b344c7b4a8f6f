package cst_test

import (
	"fmt"
	"testing"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/replay"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// site keys one instrumentable site: a loop, a user call (arm 0) or one arm
// of an if.
type site struct {
	node lang.NodeID
	arm  int8
}

func compile(t *testing.T, src string) (*lang.Program, *cst.Tree) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	tree, err := cst.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, tree
}

// astSites returns every site of prog and whether cst.Build marked it.
func astSites(prog *lang.Program) map[site]bool {
	sites := map[site]bool{}
	var expr func(e lang.Expr)
	expr = func(e lang.Expr) {
		switch e := e.(type) {
		case *lang.CallExpr:
			if e.Func != nil {
				sites[site{e.ID(), 0}] = e.Marked
			}
			for _, a := range e.Args {
				expr(a)
			}
		case *lang.BinaryExpr:
			expr(e.L)
			expr(e.R)
		case *lang.UnaryExpr:
			expr(e.X)
		}
	}
	var stmt func(s lang.Stmt)
	stmt = func(s lang.Stmt) {
		switch s := s.(type) {
		case *lang.VarStmt:
			expr(s.Init)
		case *lang.AssignStmt:
			expr(s.Value)
		case *lang.ExprStmt:
			expr(s.X)
		case *lang.ReturnStmt:
			if s.Value != nil {
				expr(s.Value)
			}
		case *lang.Block:
			for _, c := range s.Stmts {
				stmt(c)
			}
		case *lang.IfStmt:
			expr(s.Cond)
			sites[site{s.ID(), 0}] = s.ArmMarked[0]
			stmt(s.Then)
			if s.Else != nil {
				sites[site{s.ID(), 1}] = s.ArmMarked[1]
				stmt(s.Else)
			}
		case *lang.ForStmt:
			if s.Init != nil {
				stmt(s.Init)
			}
			expr(s.Cond)
			if s.Post != nil {
				stmt(s.Post)
			}
			sites[site{s.ID(), 0}] = s.Marked
			stmt(s.Body)
		case *lang.WhileStmt:
			expr(s.Cond)
			sites[site{s.ID(), 0}] = s.Marked
			stmt(s.Body)
		}
	}
	for _, f := range prog.Funcs {
		stmt(f.Body)
	}
	return sites
}

// checkMarks holds the marks cst.Build wrote to the sites of the CST's loop,
// branch-arm and call vertices, and returns how many sites went unmarked.
func checkMarks(t *testing.T, prog *lang.Program, tree *cst.Tree) (pruned int) {
	t.Helper()
	inTree := map[site]bool{}
	tree.Walk(func(v *cst.Vertex, _ int) {
		switch v.Kind {
		case cst.KindLoop, cst.KindBranch, cst.KindCall, cst.KindRecCall:
			inTree[site{v.Site, max(v.Arm, 0)}] = true
		}
	})
	marked := map[site]bool{}
	for s, m := range astSites(prog) {
		if m {
			marked[s] = true
		} else {
			pruned++
		}
	}
	for s := range marked {
		if !inTree[s] {
			t.Errorf("site %d arm %d is marked but has no CST vertex", s.node, s.arm)
		}
	}
	for s := range inTree {
		if !marked[s] {
			t.Errorf("site %d arm %d has a CST vertex but no mark", s.node, s.arm)
		}
	}
	return pruned
}

func TestMarksMatchNPB(t *testing.T) {
	for _, w := range npb.All() {
		for _, n := range []int{16, 64} {
			t.Run(fmt.Sprintf("%s/n%d", w.Name, n), func(t *testing.T) {
				prog, tree := compile(t, w.Source(n, npb.Small))
				checkMarks(t, prog, tree)
			})
		}
	}
}

// markCases are programs whose pruning has a context to get wrong; pruned is
// the number of sites the CST drops.
var markCases = []struct {
	name   string
	src    string
	pruned int
}{
	{"post-call recursion", `
func main() { f(3); }
func f(n) {
	if n > 0 {
		f(n - 1);
		allreduce(8);
	}
	for var i = 0; i < 2; i = i + 1 { compute(1); }
}`, 1},
	{"mutual recursion", `
func main() { ping(4); pong(2); }
func ping(n) { if n > 0 { barrier(); pong(n - 1); } }
func pong(n) { if n > 0 { idle(n); ping(n - 1); } else { compute(1); } }
func idle(k) { while k > 0 { k = k - 1; } }`, 3},
	{"loop-back kept through a later loop-back", `
func main() { a(3); }
func a(n) { barrier(); b(n); }
func b(n) { c(n); }
func c(n) { if n > 0 { b(n - 1); a(n - 1); } }`, 0},
	{"return in comm-free loop", `
func main() { var x = find(5); var y = probe(3); allreduce(8 + x + y); }
func find(n) {
	barrier();
	for var i = 0; i < n; i = i + 1 {
		if i == 2 { return i; }
	}
	return n;
}
func probe(n) {
	for var i = 0; i < n; i = i + 1 {
		if i == 1 { return i; }
	}
	return 0;
}`, 3},
	{"pruned else and else-if arm", `
func main() {
	for var i = 0; i < 4; i = i + 1 {
		if i % 2 == 0 { barrier(); } else { compute(1); }
		if i == 0 { compute(1); } else if i == 1 { allreduce(8); } else if i == 2 { compute(2); } else { bcast(0, 8); }
	}
}`, 3},
	{"comm-free helper in kept and pruned structures", `
func main() {
	for var i = 0; i < 3; i = i + 1 { var a = helper(i); barrier(); }
	for var j = 0; j < 2; j = j + 1 { var b = helper(j); }
}
func helper(n) {
	var s = 0;
	for var k = 0; k < n; k = k + 1 { if k % 2 == 0 { s = s + k; } }
	return s;
}`, 5},
}

// tee hands a rank's stream to its compressor and its events to a collector.
type tee struct {
	*ctt.Compressor
	raw *trace.CollectorSink
}

func (t tee) Event(e *trace.Event) { t.raw.Event(e); t.Compressor.Event(e) }

// TestMarksMatchCST checks the marks on hand-written programs, then runs each
// under compression: a marker the compressor cannot place panics the run, and
// replay must give back every rank's events.
func TestMarksMatchCST(t *testing.T) {
	const n = 4
	for _, tc := range markCases {
		t.Run(tc.name, func(t *testing.T) {
			prog, tree := compile(t, tc.src)
			if got := checkMarks(t, prog, tree); got != tc.pruned {
				t.Errorf("%d sites pruned, want %d:\n%s", got, tc.pruned, tree.Dump())
			}
			comps := make([]*ctt.Compressor, n)
			raws := make([]*trace.CollectorSink, n)
			sinks := make([]trace.Sink, n)
			for i := range sinks {
				comps[i] = ctt.NewCompressor(tree, i, timestat.ModeMeanStddev)
				raws[i] = &trace.CollectorSink{}
				sinks[i] = tee{comps[i], raws[i]}
			}
			if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
				interp.Execute(prog, r)
			}); err != nil {
				t.Fatal(err)
			}
			for i, c := range comps {
				seq, err := replay.Sequence(replay.RankSource{C: c.Finish()}, i)
				if err != nil {
					t.Fatalf("rank %d: %v", i, err)
				}
				if err := replay.Equivalent(raws[i].Events, seq); err != nil {
					t.Fatalf("rank %d: %v", i, err)
				}
			}
		})
	}
}
