package cst

// The paper's static module finds a procedure's loops as the natural loops of
// LLVM's CFG (Algorithm 1). Build reads them off MPL's structured AST instead.
// The tests here lower each program to a CFG, find its natural loops with the
// dominator-based algorithm, and hold the CST's loop and branch vertices to
// them.

import (
	"fmt"
	goast "go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/lang"
	"repro/internal/npb"
)

// cfgBlock is a basic block. Only control flow matters to the oracle, so a
// block holds no instructions.
type cfgBlock struct {
	id           int
	succs, preds []*cfgBlock // a conditional branch's succs are {true, false}
	ended        bool        // the block has its terminator
	// header is the loop statement whose condition ends this block, ifSite
	// the if statement whose condition does; each is lang.NoNode otherwise.
	header, ifSite lang.NodeID
}

// cfg is one function in CFG form; blocks[0] is the entry.
type cfg struct {
	blocks []*cfgBlock
}

type lowerer struct {
	fn  *cfg
	cur *cfgBlock
}

// lowerCFG lowers fd's body: one block per straight-line run, a conditional
// branch per if and per loop header, a back edge from the end of every loop
// body that does not return. Blocks no path from the entry reaches (code
// after a return) are dropped.
func lowerCFG(fd *lang.FuncDecl) *cfg {
	l := &lowerer{fn: &cfg{}}
	l.cur = l.newBlock()
	l.block(fd.Body)
	l.fn.reachableOnly()
	return l.fn
}

func (l *lowerer) newBlock() *cfgBlock {
	b := &cfgBlock{id: len(l.fn.blocks), header: lang.NoNode, ifSite: lang.NoNode}
	l.fn.blocks = append(l.fn.blocks, b)
	return b
}

func edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// jump ends the current block with an edge to target, unless a return ended
// it already.
func (l *lowerer) jump(target *cfgBlock) {
	if !l.cur.ended {
		l.cur.ended = true
		edge(l.cur, target)
	}
}

// branch ends b with a conditional branch.
func branch(b, onTrue, onFalse *cfgBlock) {
	b.ended = true
	edge(b, onTrue)
	edge(b, onFalse)
}

func (l *lowerer) block(blk *lang.Block) {
	for _, s := range blk.Stmts {
		if l.cur.ended {
			l.cur = l.newBlock() // after a return: unreachable, dropped later
		}
		l.stmt(s)
	}
}

// stmt lowers one statement. Declarations, assignments and expression
// statements are straight-line code, and conditions are pure, so only
// returns, blocks, ifs and loops shape the graph.
func (l *lowerer) stmt(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.ReturnStmt:
		l.cur.ended = true
	case *lang.Block:
		l.block(s)
	case *lang.IfStmt:
		cond, then, join := l.cur, l.newBlock(), l.newBlock()
		l.cur = then
		l.block(s.Then)
		l.jump(join)
		onFalse := join
		if s.Else != nil {
			onFalse = l.newBlock()
			l.cur = onFalse
			l.stmt(s.Else)
			l.jump(join)
		}
		cond.ifSite = s.ID()
		branch(cond, then, onFalse)
		l.cur = join
	case *lang.ForStmt:
		l.loop(s.ID(), s.Body)
	case *lang.WhileStmt:
		l.loop(s.ID(), s.Body)
	}
}

func (l *lowerer) loop(site lang.NodeID, body *lang.Block) {
	header := l.newBlock()
	header.header = site
	l.jump(header)
	entry, exit := l.newBlock(), l.newBlock()
	branch(header, entry, exit)
	l.cur = entry
	l.block(body)
	l.jump(header) // the back edge
	l.cur = exit
}

// reachableOnly drops the blocks no path from the entry reaches, and their
// edges, and renumbers the rest.
func (f *cfg) reachableOnly() {
	seen := map[*cfgBlock]bool{f.blocks[0]: true}
	for stack := []*cfgBlock{f.blocks[0]}; len(stack) > 0; {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	kept := f.blocks[:0]
	for _, b := range f.blocks {
		if !seen[b] {
			continue
		}
		b.id = len(kept)
		preds := b.preds[:0]
		for _, p := range b.preds {
			if seen[p] {
				preds = append(preds, p)
			}
		}
		b.preds = preds
		kept = append(kept, b)
	}
	f.blocks = kept
}

// dominators returns each block's immediate dominator by the iterative
// algorithm of Cooper, Harvey and Kennedy; the entry is its own.
func (f *cfg) dominators() []int {
	var rpo []*cfgBlock
	seen := make([]bool, len(f.blocks))
	var visit func(b *cfgBlock)
	visit = func(b *cfgBlock) {
		seen[b.id] = true
		for _, s := range b.succs {
			if !seen[s.id] {
				visit(s)
			}
		}
		rpo = append(rpo, b)
	}
	visit(f.blocks[0])
	order := make([]int, len(f.blocks)) // a block's place in reverse post-order
	for i, b := range rpo {
		order[b.id] = len(rpo) - 1 - i
	}
	idom := make([]int, len(f.blocks))
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 2; i >= 0; i-- { // reverse post-order, entry skipped
			b := rpo[i]
			d := -1
			for _, p := range b.preds {
				switch {
				case idom[p.id] == -1:
				case d == -1:
					d = p.id
				default:
					d = intersect(p.id, d)
				}
			}
			if d != idom[b.id] {
				idom[b.id] = d
				changed = true
			}
		}
	}
	return idom
}

// dominates reports whether block a dominates block b under idom.
func dominates(idom []int, a, b int) bool {
	for b != a {
		if idom[b] == b {
			return false // reached the entry
		}
		b = idom[b]
	}
	return true
}

// loopHeaders returns the headers of f's natural loops: the targets of back
// edges, edges whose target dominates their source. Back edges that share a
// header form one loop.
func (f *cfg) loopHeaders() []*cfgBlock {
	idom := f.dominators()
	var headers []*cfgBlock
	for _, h := range f.blocks {
		for _, p := range h.preds {
			if dominates(idom, h.id, p.id) {
				headers = append(headers, h)
				break
			}
		}
	}
	return headers
}

// reaches reports whether some path of zero or more edges leads from a to b.
func reaches(a, b *cfgBlock) bool {
	seen := map[*cfgBlock]bool{a: true}
	for stack := []*cfgBlock{a}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == b {
			return true
		}
		for _, s := range n.succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// checkCFG lowers every function of the checked program prog to a CFG and
// holds tree, built from prog, to it:
//
//	(i)   every natural loop's header ends in a loop statement's condition,
//	      and no statement heads two loops;
//	(ii)  a loop header that heads no natural loop is one whose body never
//	      leads back to it: a body that always returns runs at most once;
//	(iii) every loop vertex's Site is a header from (i) or (ii);
//	(iv)  every branch vertex's Site is an if lowered to a conditional
//	      branch that is not a loop header.
//
// A header that an enclosing loop reaches again through its exit is still no
// natural loop, so (ii) looks for a path from the body, not from the header.
func checkCFG(prog *lang.Program, tree *Tree) error {
	loops := map[lang.NodeID]bool{}
	ifs := map[lang.NodeID]bool{}
	for _, fd := range prog.Funcs {
		f := lowerCFG(fd)
		natural := map[*cfgBlock]bool{}
		for _, h := range f.loopHeaders() {
			if h.header == lang.NoNode {
				return fmt.Errorf("%s: natural loop at b%d has no loop statement", fd.Name, h.id)
			}
			if loops[h.header] {
				return fmt.Errorf("%s: loop statement %d heads two natural loops", fd.Name, h.header)
			}
			natural[h], loops[h.header] = true, true
		}
		for _, b := range f.blocks {
			if b.header != lang.NoNode && !natural[b] {
				if reaches(b.succs[0], b) {
					return fmt.Errorf("%s: loop statement %d at b%d re-enters its header but heads no natural loop", fd.Name, b.header, b.id)
				}
				loops[b.header] = true
			}
			if b.ifSite != lang.NoNode {
				ifs[b.ifSite] = true
			}
		}
	}
	var err error
	tree.Walk(func(v *Vertex, _ int) {
		switch {
		case err != nil:
		case v.Kind == KindLoop && !loops[v.Site]:
			err = fmt.Errorf("loop vertex GID %d: site %d is no loop header of the CFG", v.GID, v.Site)
		case v.Kind == KindBranch && !ifs[v.Site]:
			err = fmt.Errorf("branch vertex GID %d: site %d is no if branch of the CFG", v.GID, v.Site)
		}
	})
	return err
}

// testPrograms returns every string literal in this directory's test files
// that parses and checks as MPL, keyed by its position, so the oracle and
// FuzzBuild cover each program a test here builds without a second list.
func testPrograms(tb testing.TB) map[string]string {
	tb.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		tb.Fatal(err)
	}
	fset := token.NewFileSet()
	srcs := map[string]string{}
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		goast.Inspect(file, func(n goast.Node) bool {
			lit, ok := n.(*goast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil {
				tb.Fatal(err)
			}
			if prog, err := lang.Parse(src); err == nil {
				if _, err := lang.Check(prog); err == nil {
					srcs[fset.Position(lit.Pos()).String()] = src
				}
			}
			return true
		})
	}
	return srcs
}

// checked parses and checks src, as Build requires.
func checked(tb testing.TB, src string) *lang.Program {
	tb.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	if _, err := lang.Check(prog); err != nil {
		tb.Fatalf("check: %v", err)
	}
	return prog
}

// TestCFGOracle holds the CST of every program the package's tests build, and
// of the nine npb skeletons at 16 and 64 ranks, to its CFG.
func TestCFGOracle(t *testing.T) {
	srcs := testPrograms(t)
	if len(srcs) < 20 {
		t.Fatalf("found %d test programs; the scan lost them", len(srcs))
	}
	for _, w := range npb.All() {
		for _, n := range []int{16, 64} {
			srcs[fmt.Sprintf("%s/n%d", w.Name, n)] = w.Source(n, npb.Small)
		}
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			prog := checked(t, src)
			tree, err := Build(prog)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := checkCFG(prog, tree); err != nil {
				t.Fatalf("%v\n%s", err, tree.Dump())
			}
		})
	}
}

// TestNaturalLoopsMixedNesting: loops in branches, a branch in a loop and an
// else-if chain lower to exactly one natural loop per loop statement.
func TestNaturalLoopsMixedNesting(t *testing.T) {
	prog := checked(t, `
func main() {
	if rank == 0 {
		for var i = 0; i < 3; i = i + 1 { send(1, 8, i); }
	} else if rank == 1 {
		for var i = 0; i < 3; i = i + 1 { recv(0, 8, i); }
	} else {
		while rank > size { barrier(); }
	}
	for var r = 0; r < 2; r = r + 1 {
		if r == 0 { allreduce(8); }
	}
}`)
	if got := len(lowerCFG(prog.ByName["main"]).loopHeaders()); got != 4 {
		t.Fatalf("natural loops = %d, want 4", got)
	}
}

// TestLoopBodyReturnsInsideLoop: a loop whose body always returns heads no
// natural loop, yet the enclosing loop leads back to its header through its
// exit; it still builds, as a loop vertex.
func TestLoopBodyReturnsInsideLoop(t *testing.T) {
	tree := build(t, `
func main() {
	for var i = 0; i < 3; i = i + 1 {
		while i > 100 { barrier(); return; }
		allreduce(8);
	}
}`)
	if st := tree.Stats(); st.Loops != 2 {
		t.Fatalf("loops = %d, want 2\n%s", st.Loops, tree.Dump())
	}
}

// FuzzBuild feeds MPL source to the static path. Parse and Check may refuse
// an input; a checked input builds or returns an error, never panics, and
// every CST it builds satisfies the CFG oracle.
func FuzzBuild(f *testing.F) {
	for _, src := range testPrograms(f) {
		f.Add(src)
	}
	for _, w := range npb.All() {
		f.Add(w.Source(16, npb.Small))
	}
	f.Add(callChain(30, "compute(1);"))
	f.Add(callChain(30, "barrier();"))
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			return
		}
		if _, err := lang.Check(prog); err != nil {
			return
		}
		tree, err := Build(prog)
		if err != nil {
			return
		}
		if err := checkCFG(prog, tree); err != nil {
			t.Fatalf("%v\n%s", err, tree.Dump())
		}
	})
}
