package lang

import "fmt"

// Check performs semantic analysis: name resolution, arity checking, builtin
// misuse detection, and recursion-cycle discovery (recursive functions are
// legal; the CST builder converts them to pseudo-loops per the paper).
// It returns the set of functions that participate in recursion cycles.
//
// Resolution is written into the AST, so the interpreter never looks a name
// up: every variable reference, declaration and assignment gets its slot in
// the function's frame, every function its FrameSize and Recursive, and every
// call its callee. Checking the same AST again writes the same values.
func Check(prog *Program) (recursive map[string]bool, err error) {
	if _, ok := prog.ByName["main"]; !ok {
		return nil, fmt.Errorf("program has no func main")
	}
	if n := len(prog.ByName["main"].Params); n != 0 {
		return nil, errf(prog.ByName["main"].Pos(), "func main must take no parameters, has %d", n)
	}
	for _, fn := range prog.Funcs {
		c := &checker{prog: prog, fn: fn}
		if err := c.checkFunc(); err != nil {
			return nil, err
		}
	}
	prog.Resolved = true
	return findRecursive(prog), nil
}

// Predeclared read-only variables available in every function.
var predeclared = map[string]bool{"rank": true, "size": true}

// checker resolves one function. Each scope maps its names to frame slots;
// a name takes the next free slot, and popping a scope frees its slots for
// the next sibling block.
type checker struct {
	prog   *Program
	fn     *FuncDecl
	scopes []map[string]int
	next   int // first free frame slot
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]int{}) }

func (c *checker) pop() {
	c.next -= len(c.scopes[len(c.scopes)-1])
	c.scopes = c.scopes[:len(c.scopes)-1]
}

func (c *checker) declare(pos Pos, name string) (slot int, err error) {
	if predeclared[name] {
		return 0, errf(pos, "cannot redeclare builtin variable %q", name)
	}
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return 0, errf(pos, "variable %q redeclared in this block", name)
	}
	slot = c.next
	top[name] = slot
	c.next++
	c.fn.FrameSize = max(c.fn.FrameSize, c.next)
	return slot, nil
}

// resolve returns the frame slot name refers to, -1 for rank and size.
func (c *checker) resolve(name string) (slot int, ok bool) {
	if predeclared[name] {
		return -1, true
	}
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if slot, ok := c.scopes[i][name]; ok {
			return slot, true
		}
	}
	return 0, false
}

func (c *checker) checkFunc() error {
	c.scopes, c.next, c.fn.FrameSize = nil, 0, 0
	c.push()
	for _, prm := range c.fn.Params {
		if _, err := c.declare(c.fn.Pos(), prm); err != nil {
			return err
		}
	}
	return c.checkBlock(c.fn.Body)
}

func (c *checker) checkBlock(b *Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *VarStmt:
		if err := c.checkExpr(s.Init); err != nil {
			return err
		}
		slot, err := c.declare(s.Pos(), s.Name)
		s.Slot = slot
		return err
	case *AssignStmt:
		if predeclared[s.Name] {
			return errf(s.Pos(), "cannot assign to builtin variable %q", s.Name)
		}
		slot, ok := c.resolve(s.Name)
		if !ok {
			return errf(s.Pos(), "assignment to undeclared variable %q", s.Name)
		}
		s.Slot = slot
		return c.checkExpr(s.Value)
	case *IfStmt:
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		if err := c.checkBlock(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkStmt(s.Else)
		}
		return nil
	case *ForStmt:
		c.push()
		defer c.pop()
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond == nil {
			return errf(s.Pos(), "for loop without condition (MPL has no break)")
		}
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		if s.Post != nil {
			if err := c.checkStmt(s.Post); err != nil {
				return err
			}
		}
		return c.checkBlock(s.Body)
	case *WhileStmt:
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		return c.checkBlock(s.Body)
	case *ReturnStmt:
		if s.Value != nil {
			return c.checkExpr(s.Value)
		}
		return nil
	case *ExprStmt:
		return c.checkExpr(s.X)
	case *Block:
		return c.checkBlock(s)
	}
	return errf(s.Pos(), "unknown statement type %T", s)
}

func (c *checker) checkExpr(e Expr) error {
	switch e := e.(type) {
	case *IntLit:
		return nil
	case *AnyLit:
		return errf(e.Pos(), "ANY is only valid as the source argument of recv/irecv")
	case *Ident:
		slot, ok := c.resolve(e.Name)
		if !ok {
			if _, isFn := c.prog.ByName[e.Name]; isFn || IsIntrinsic(e.Name) {
				return errf(e.Pos(), "%q is a function; did you mean %s(...)?", e.Name, e.Name)
			}
			return errf(e.Pos(), "undeclared variable %q", e.Name)
		}
		e.Slot = slot
		return nil
	case *UnaryExpr:
		return c.checkExpr(e.X)
	case *BinaryExpr:
		if err := c.checkExpr(e.L); err != nil {
			return err
		}
		return c.checkExpr(e.R)
	case *CallExpr:
		return c.checkCall(e)
	}
	return errf(e.Pos(), "unknown expression type %T", e)
}

// checkCond checks a loop/branch condition. Conditions must be pure: they may
// not call user functions or side-effecting intrinsics (communication,
// compute), because conditions are re-evaluated outside the control
// structure's CST vertex and impure conditions would desynchronize the static
// structure tree from the runtime event stream.
func (c *checker) checkCond(e Expr) error {
	var impure error
	WalkCallsInEvalOrder(e, func(call *CallExpr) {
		if impure != nil {
			return
		}
		in, ok := Intrinsics[call.Name]
		if !ok || in.IsComm || call.Name == "compute" {
			impure = errf(e.Pos(), "condition must be pure: call to %q not allowed here", call.Name)
		}
	})
	if impure != nil {
		return impure
	}
	return c.checkExpr(e)
}

func (c *checker) checkCall(e *CallExpr) error {
	if in, ok := Intrinsics[e.Name]; ok {
		e.Intrinsic = in
		if len(e.Args) != in.Arity {
			return errf(e.Pos(), "%s takes %d argument(s), got %d", e.Name, in.Arity, len(e.Args))
		}
		for i, a := range e.Args {
			if _, isAny := a.(*AnyLit); isAny {
				wildOK := (e.Name == "recv" || e.Name == "irecv") && i == 0
				if !wildOK {
					return errf(a.Pos(), "ANY is only valid as the source argument of recv/irecv")
				}
				continue
			}
			if err := c.checkExpr(a); err != nil {
				return err
			}
		}
		return nil
	}
	callee, ok := c.prog.ByName[e.Name]
	if !ok {
		return errf(e.Pos(), "call to undefined function %q", e.Name)
	}
	if len(e.Args) != len(callee.Params) {
		return errf(e.Pos(), "%s takes %d argument(s), got %d", e.Name, len(callee.Params), len(e.Args))
	}
	e.Func = callee
	for _, a := range e.Args {
		if err := c.checkExpr(a); err != nil {
			return err
		}
	}
	return nil
}

// findRecursive returns the functions on call-graph cycles (including
// self-recursion) via Tarjan's strongly connected components, and sets each
// function's Recursive to match.
func findRecursive(prog *Program) map[string]bool {
	// Build adjacency: function -> called user functions.
	callees := map[string][]string{}
	for _, fn := range prog.Funcs {
		seen := map[string]bool{}
		walkCalls(fn.Body, func(call *CallExpr) {
			if call.Func != nil && !seen[call.Name] {
				seen[call.Name] = true
				callees[fn.Name] = append(callees[fn.Name], call.Name)
			}
		})
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	rec := map[string]bool{}

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range callees[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				for _, w := range comp {
					rec[w] = true
				}
			} else {
				// Self-loop: v calls v directly.
				for _, w := range callees[v] {
					if w == v {
						rec[v] = true
					}
				}
			}
		}
	}
	for _, fn := range prog.Funcs {
		if _, seen := index[fn.Name]; !seen {
			strongconnect(fn.Name)
		}
	}
	for _, fn := range prog.Funcs {
		fn.Recursive = rec[fn.Name]
	}
	return rec
}

// walkCalls visits every call in a statement tree.
func walkCalls(s Stmt, f func(*CallExpr)) {
	switch s := s.(type) {
	case *Block:
		for _, st := range s.Stmts {
			walkCalls(st, f)
		}
	case *VarStmt:
		WalkCallsInEvalOrder(s.Init, f)
	case *AssignStmt:
		WalkCallsInEvalOrder(s.Value, f)
	case *IfStmt:
		WalkCallsInEvalOrder(s.Cond, f)
		walkCalls(s.Then, f)
		if s.Else != nil {
			walkCalls(s.Else, f)
		}
	case *ForStmt:
		if s.Init != nil {
			walkCalls(s.Init, f)
		}
		WalkCallsInEvalOrder(s.Cond, f)
		if s.Post != nil {
			walkCalls(s.Post, f)
		}
		walkCalls(s.Body, f)
	case *WhileStmt:
		WalkCallsInEvalOrder(s.Cond, f)
		walkCalls(s.Body, f)
	case *ReturnStmt:
		if s.Value != nil {
			WalkCallsInEvalOrder(s.Value, f)
		}
	case *ExprStmt:
		WalkCallsInEvalOrder(s.X, f)
	}
}

// WalkCallsInEvalOrder visits every call expression within e in evaluation
// order: arguments before the call that consumes them, left to right. This is
// the order the interpreter executes them, so the CST builder uses it to lay
// out leaves.
func WalkCallsInEvalOrder(e Expr, f func(*CallExpr)) {
	switch e := e.(type) {
	case *UnaryExpr:
		WalkCallsInEvalOrder(e.X, f)
	case *BinaryExpr:
		WalkCallsInEvalOrder(e.L, f)
		WalkCallsInEvalOrder(e.R, f)
	case *CallExpr:
		for _, a := range e.Args {
			WalkCallsInEvalOrder(a, f)
		}
		f(e)
	}
}
