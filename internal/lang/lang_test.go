package lang

import (
	"fmt"
	"strings"
	"testing"
)

const jacobiSrc = `
// Paper Figure 3: simplified Jacobi iteration.
func main() {
	for var k = 0; k < 10; k = k + 1 {
		if rank < size - 1 {
			send(rank + 1, 8000, 0);
		}
		if rank > 0 {
			recv(rank - 1, 8000, 0);
		}
		if rank > 0 {
			send(rank - 1, 8000, 0);
		}
		if rank < size - 1 {
			recv(rank + 1, 8000, 0);
		}
		compute(1000);
	}
}
`

const fig5Src = `
// Paper Figure 5: loop + branches + user functions.
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

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("func main() { var x = 1 + 2; } // comment")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KwFunc, IDENT, LParen, RParen, LBrace, KwVar, IDENT,
		Assign, INT, Plus, INT, Semicolon, RBrace, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i], k)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := Tokenize("<= >= == != && || ! < > = % ANY")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Le, Ge, EqEq, NotEq, AndAnd, OrOr, Not, Lt, Gt, Assign, Percent, KwAny, EOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i], k)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"@", "&x", "|x", "#"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

func TestTokenPositions(t *testing.T) {
	toks, err := Tokenize("func\n  main")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) || toks[1].Pos != (Pos{2, 3}) {
		t.Fatalf("positions: %v %v", toks[0].Pos, toks[1].Pos)
	}
}

func TestParseJacobi(t *testing.T) {
	prog := mustParse(t, jacobiSrc)
	if len(prog.Funcs) != 1 || prog.Funcs[0].Name != "main" {
		t.Fatalf("funcs = %v", prog.Funcs)
	}
	body := prog.Funcs[0].Body
	if len(body.Stmts) != 1 {
		t.Fatalf("main body stmts = %d", len(body.Stmts))
	}
	loop, ok := body.Stmts[0].(*ForStmt)
	if !ok {
		t.Fatalf("expected ForStmt, got %T", body.Stmts[0])
	}
	if len(loop.Body.Stmts) != 5 {
		t.Fatalf("loop body stmts = %d", len(loop.Body.Stmts))
	}
	if _, ok := loop.Body.Stmts[0].(*IfStmt); !ok {
		t.Fatalf("expected IfStmt, got %T", loop.Body.Stmts[0])
	}
}

func TestParseFig5(t *testing.T) {
	prog := mustParse(t, fig5Src)
	if len(prog.Funcs) != 3 {
		t.Fatalf("funcs = %d", len(prog.Funcs))
	}
	if _, err := Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
}

func TestNodeIDsDenseAndUnique(t *testing.T) {
	prog := mustParse(t, fig5Src)
	seen := map[NodeID]bool{}
	var walk func(n Node)
	var walkStmt func(s Stmt)
	var walkExpr func(e Expr)
	walk = func(n Node) {
		if n == nil {
			return
		}
		id := n.ID()
		if id < 0 || int32(id) >= prog.NumNodes {
			t.Fatalf("node id %d out of range [0,%d)", id, prog.NumNodes)
		}
		if seen[id] {
			t.Fatalf("duplicate node id %d", id)
		}
		seen[id] = true
	}
	walkExpr = func(e Expr) {
		if e == nil {
			return
		}
		walk(e)
		switch e := e.(type) {
		case *UnaryExpr:
			walkExpr(e.X)
		case *BinaryExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *CallExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	walkStmt = func(s Stmt) {
		if s == nil {
			return
		}
		walk(s)
		switch s := s.(type) {
		case *Block:
			for _, st := range s.Stmts {
				walkStmt(st)
			}
		case *VarStmt:
			walkExpr(s.Init)
		case *AssignStmt:
			walkExpr(s.Value)
		case *IfStmt:
			walkExpr(s.Cond)
			walkStmt(s.Then)
			walkStmt(s.Else)
		case *ForStmt:
			walkStmt(s.Init)
			walkExpr(s.Cond)
			walkStmt(s.Post)
			walkStmt(s.Body)
		case *WhileStmt:
			walkExpr(s.Cond)
			walkStmt(s.Body)
		case *ReturnStmt:
			walkExpr(s.Value)
		case *ExprStmt:
			walkExpr(s.X)
		}
	}
	walk(prog)
	for _, fn := range prog.Funcs {
		walk(fn)
		walkStmt(fn.Body)
	}
}

func TestParsePrecedence(t *testing.T) {
	prog := mustParse(t, `func main() { var x = 1 + 2 * 3; if x == 7 { barrier(); } }`)
	v := prog.Funcs[0].Body.Stmts[0].(*VarStmt)
	add := v.Init.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("top op = %v", add.Op)
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != OpMul {
		t.Fatalf("right op = %v", mul.Op)
	}
}

func TestParseLeftAssociativity(t *testing.T) {
	prog := mustParse(t, `func main() { var x = 10 - 3 - 2; }`)
	v := prog.Funcs[0].Body.Stmts[0].(*VarStmt)
	outer := v.Init.(*BinaryExpr)
	if outer.Op != OpSub {
		t.Fatal("expected subtraction")
	}
	if _, ok := outer.L.(*BinaryExpr); !ok {
		t.Fatal("subtraction must be left-associative")
	}
	if lit, ok := outer.R.(*IntLit); !ok || lit.Value != 2 {
		t.Fatalf("right operand = %v", outer.R)
	}
}

func TestParseElseIfChain(t *testing.T) {
	prog := mustParse(t, `
func main() {
	if rank == 0 { barrier(); }
	else if rank == 1 { barrier(); }
	else { barrier(); }
}`)
	s := prog.Funcs[0].Body.Stmts[0].(*IfStmt)
	elseIf, ok := s.Else.(*IfStmt)
	if !ok {
		t.Fatalf("else-if not chained: %T", s.Else)
	}
	if _, ok := elseIf.Else.(*Block); !ok {
		t.Fatalf("final else wrong: %T", elseIf.Else)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`func main( { }`,
		`func main() { var = 3; }`,
		`func main() { if { } }`,
		`func main() { x = ; }`,
		`func main() { for var i = 0 i < 3; i = i + 1 { } }`,
		`func main() `,
		`func main() { var x = 99999999999999999999999; }`,
		`func main() { } func main() { }`,
		`func send() { }`,
		`func main() { else { } }`,
		`func main() { if 1 { } else barrier(); }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := map[string]string{
		`func notmain() { }`:                             "no func main",
		`func main(a) { }`:                               "must take no parameters",
		`func main() { x = 3; }`:                         "undeclared",
		`func main() { var x = y; }`:                     "undeclared",
		`func main() { var rank = 3; }`:                  "builtin",
		`func main() { rank = 3; }`:                      "builtin",
		`func main() { var x = 1; var x = 2; }`:          "redeclared",
		`func main() { send(1, 2); }`:                    "takes 3 argument",
		`func main() { foo(1); } func foo() { }`:         "takes 0 argument",
		`func main() { foo(); }`:                         "undefined function",
		`func main() { send(ANY, 8, 0); }`:               "ANY is only valid",
		`func main() { var x = ANY; }`:                   "ANY is only valid",
		`func main() { var x = send; }`:                  "is a function",
		`func main() { for ; 1 < 2; { barrier(); } }`:    "", // valid: no init/post
		`func main() { for var i = 0; ; i = i + 1 { } }`: "without condition",
	}
	for src, want := range cases {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		_, err = Check(prog)
		if want == "" {
			if err != nil {
				t.Errorf("Check(%q) unexpected error: %v", src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Check(%q) = %v, want error containing %q", src, err, want)
		}
	}
}

func TestCheckScoping(t *testing.T) {
	// Inner blocks may shadow; for-loop variables live in the loop scope
	// and may be redeclared by sibling loops.
	src := `
func main() {
	var x = 1;
	if x > 0 {
		var x = 2;
		compute(x);
	}
	for var i = 0; i < 2; i = i + 1 { compute(i); }
	for var i = 0; i < 2; i = i + 1 { compute(i); }
}`
	prog := mustParse(t, src)
	if _, err := Check(prog); err != nil {
		t.Fatalf("scoping rejected: %v", err)
	}
}

func TestCheckWildcardRecvAllowed(t *testing.T) {
	prog := mustParse(t, `func main() { recv(ANY, 8, 0); var r = irecv(ANY, 8, 0); wait(r); }`)
	if _, err := Check(prog); err != nil {
		t.Fatalf("wildcard recv rejected: %v", err)
	}
}

func TestRecursionDetection(t *testing.T) {
	src := `
func main() { f(3); g(2); solo(); }
func f(n) { if n > 0 { bcast(0, 8); f(n - 1); } }
func g(n) { h(n); }
func h(n) { if n > 0 { g(n - 1); } }
func solo() { barrier(); }
`
	prog := mustParse(t, src)
	rec, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{"f": true, "g": true, "h": true, "solo": false, "main": false} {
		if rec[name] != want {
			t.Errorf("recursive[%q] = %v, want %v", name, rec[name], want)
		}
		if got := prog.ByName[name].Recursive; got != want {
			t.Errorf("%s.Recursive = %v, want %v", name, got, want)
		}
	}
}

func TestIntrinsicTable(t *testing.T) {
	if !IsIntrinsic("send") || !Intrinsics["alltoall"].IsComm {
		t.Fatal("intrinsic lookup broken")
	}
	if Intrinsics["compute"].IsComm || Intrinsics["min"].IsComm {
		t.Fatal("compute/min must not be comm intrinsics")
	}
	if IsIntrinsic("nosuch") {
		t.Fatal("unknown intrinsic reported")
	}
	codes := map[Builtin]string{}
	for name, in := range Intrinsics {
		if in.Name != name {
			t.Errorf("intrinsic %q has mismatched Name %q", name, in.Name)
		}
		if other, dup := codes[in.Code]; dup {
			t.Errorf("intrinsics %q and %q share code %d", name, other, in.Code)
		}
		codes[in.Code] = name
	}
}

func TestWhileLoop(t *testing.T) {
	prog := mustParse(t, `
func main() {
	var l = 1;
	while l < size {
		send(rank + l, 8, 0);
		l = l * 2;
	}
}`)
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	if _, ok := prog.Funcs[0].Body.Stmts[1].(*WhileStmt); !ok {
		t.Fatal("expected WhileStmt")
	}
}

func TestUnaryAndLogic(t *testing.T) {
	prog := mustParse(t, `
func main() {
	var a = -3;
	var b = !(a > 0) && 1 <= 2 || a != 4;
	compute(b);
}`)
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
}

// resolution lists what Check wrote into prog, in source order: each
// function's frame size, each name with its slot ("x@2" a read, "var x@2" a
// declaration, "x=@2" an assignment) and each call with its target.
func resolution(prog *Program) []string {
	var out []string
	var expr func(Expr)
	expr = func(e Expr) {
		switch e := e.(type) {
		case *Ident:
			out = append(out, fmt.Sprintf("%s@%d", e.Name, e.Slot))
		case *UnaryExpr:
			expr(e.X)
		case *BinaryExpr:
			expr(e.L)
			expr(e.R)
		case *CallExpr:
			for _, a := range e.Args {
				expr(a)
			}
			switch {
			case e.Func != nil:
				out = append(out, fmt.Sprintf("call %s->func %s", e.Name, e.Func.Name))
			case e.Intrinsic != nil:
				out = append(out, fmt.Sprintf("call %s->builtin %d", e.Name, e.Intrinsic.Code))
			default:
				out = append(out, "call "+e.Name+" unresolved")
			}
		}
	}
	var stmt func(Stmt)
	stmt = func(s Stmt) {
		switch s := s.(type) {
		case *Block:
			for _, st := range s.Stmts {
				stmt(st)
			}
		case *VarStmt:
			expr(s.Init)
			out = append(out, fmt.Sprintf("var %s@%d", s.Name, s.Slot))
		case *AssignStmt:
			expr(s.Value)
			out = append(out, fmt.Sprintf("%s=@%d", s.Name, s.Slot))
		case *IfStmt:
			expr(s.Cond)
			stmt(s.Then)
			if s.Else != nil {
				stmt(s.Else)
			}
		case *ForStmt:
			if s.Init != nil {
				stmt(s.Init)
			}
			expr(s.Cond)
			stmt(s.Body)
			if s.Post != nil {
				stmt(s.Post)
			}
		case *WhileStmt:
			expr(s.Cond)
			stmt(s.Body)
		case *ReturnStmt:
			if s.Value != nil {
				expr(s.Value)
			}
		case *ExprStmt:
			expr(s.X)
		}
	}
	for _, fn := range prog.Funcs {
		out = append(out, fmt.Sprintf("func %s frame %d", fn.Name, fn.FrameSize))
		stmt(fn.Body)
	}
	return out
}

func TestCheckResolvesSlots(t *testing.T) {
	prog := mustParse(t, `
func f(a, b) {
	var x = a + b;
	if x > 0 {
		var x = x + rank;
		x = x * 2;
	}
	{ var y = 1; }
	for var i = 0; i < 2; i = i + 1 { var z = i; }
	for var j = 0; j < size; j = j + 1 { compute(j); }
	{ var w = x; var x = 9; compute(x + w); }
	return x;
}
func main() { var r = f(1, 2); compute(r); }`)
	if prog.Resolved {
		t.Fatal("parsed program reads as resolved")
	}
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	if !prog.Resolved {
		t.Fatal("checked program not marked resolved")
	}
	compute := fmt.Sprintf("call compute->builtin %d", BuiltinCompute)
	want := []string{
		"func f frame 5",
		// Parameters take the first slots.
		"a@0", "b@1", "var x@2",
		// The inner x reads the outer one in its own initializer, then
		// shadows it in a fresh slot.
		"x@2", "x@2", "rank@-1", "var x@3", "x@3", "x=@3",
		// A sibling block and two consecutive loops reuse slot 3.
		"var y@3",
		"var i@3", "i@3", "i@3", "var z@4", "i@3", "i=@3",
		"var j@3", "j@3", "size@-1", "j@3", compute, "j@3", "j=@3",
		// A read of the outer x before the block's own var x.
		"x@2", "var w@3", "var x@4", "x@4", "w@3", compute,
		"x@2",
		"func main frame 1",
		"call f->func f", "var r@0", "r@0", compute,
	}
	got := resolution(prog)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("resolution:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// Checking the same AST a second time must write the same values.
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	if again := resolution(prog); strings.Join(again, "\n") != strings.Join(got, "\n") {
		t.Fatalf("second Check wrote different values:\n%s", strings.Join(again, "\n"))
	}
}
