package cst

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/trace"
)

// Build constructs the program CST from a checked MPL program.
//
// The intra-procedural phase derives each procedure's tree from its
// structured control flow (Algorithm 1): MPL has no goto, so its loop
// statements are exactly the natural loops of its CFG, which the package's
// tests check on every program they build. The inter-procedural phase
// copies pruned callee trees to call sites (Algorithm 2), expanding calls
// into a recursion cycle top-down into pseudo-loop structure. Finally every
// loop, branch-arm and call site is marked on the AST with whether it
// survived pruning (markSites), and GIDs are assigned in pre-order.
func Build(p *lang.Program) (*Tree, error) {
	if !p.Resolved {
		return nil, fmt.Errorf("cst: program is not checked")
	}
	b := &builder{pruned: map[*lang.FuncDecl]*Vertex{}}
	root := &Vertex{Kind: KindRoot, Site: lang.NoNode, Arm: NoArm}
	// Check refuses a program without main, so a resolved one has it.
	if err := b.expandBody(p.ByName["main"], root, nil); err != nil {
		return nil, err
	}
	prune(root)
	if err := markSites(b.sites); err != nil {
		return nil, err
	}
	t := &Tree{Root: root, FuncName: "main"}
	assignGIDs(t)
	if err := root.checkChildren(map[uint64]bool{}); err != nil {
		return nil, err
	}
	return t, nil
}

type frame struct {
	name   string
	vertex *Vertex
}

// vertexBudget bounds the vertices one Build creates, pruned ones included:
// over 1000x the 77 that BT, the largest npb skeleton, creates (it keeps all
// of them). A 30-level call chain whose tree doubles at each level is refused
// at level 15 after about 150 ms and 19 MB (go1.24, 2-vCPU linux/amd64).
const vertexBudget = 1 << 17

type builder struct {
	// sites pairs every loop, branch-arm and call vertex, in every calling
	// context, with the AST node it expands, for markSites.
	sites    []siteVertex
	pruned   map[*lang.FuncDecl]*Vertex // first call vertex of each function on no call cycle
	vertices int                        // created so far, against vertexBudget
}

type siteVertex struct {
	node lang.Node
	v    *Vertex
}

// add appends c to parent as the vertex of the AST site node.
func (b *builder) add(parent *Vertex, node lang.Node, c *Vertex) *Vertex {
	b.sites = append(b.sites, siteVertex{node, c})
	b.vertices++
	return parent.addChild(c)
}

// expandBody appends the CST of fn's body to parent. stack holds the
// in-progress function expansions for recursion cutting.
func (b *builder) expandBody(fn *lang.FuncDecl, parent *Vertex, stack []frame) error {
	_, err := b.blockStop(fn.Body, parent, append(stack, frame{fn.Name, parent}))
	return err
}

// stmt expands one statement; it reports whether the statement unconditionally
// stops execution (return).
func (b *builder) stmt(s lang.Stmt, parent *Vertex, stack []frame) (bool, error) {
	switch s := s.(type) {
	case *lang.VarStmt:
		return false, b.exprCalls(s.Init, parent, stack)
	case *lang.AssignStmt:
		return false, b.exprCalls(s.Value, parent, stack)
	case *lang.ExprStmt:
		return false, b.exprCalls(s.X, parent, stack)
	case *lang.ReturnStmt:
		if s.Value != nil {
			if err := b.exprCalls(s.Value, parent, stack); err != nil {
				return true, err
			}
		}
		return true, nil
	case *lang.Block:
		return b.blockStop(s, parent, stack)
	case *lang.IfStmt:
		// Conditions are pure (checked), so no leaves precede the arms.
		arm0 := b.add(parent, s, &Vertex{Kind: KindBranch, Site: s.ID(), Arm: 0})
		thenStop, err := b.blockStop(s.Then, arm0, stack)
		if err != nil {
			return false, err
		}
		arm0.Returns = thenStop
		elseStop := false
		if s.Else != nil {
			arm1 := b.add(parent, s, &Vertex{Kind: KindBranch, Site: s.ID(), Arm: 1})
			elseStop, err = b.stmt(s.Else, arm1, stack)
			if err != nil {
				return false, err
			}
			arm1.Returns = elseStop
		}
		// The if stops the enclosing block only when every path returns.
		return thenStop && s.Else != nil && elseStop, nil
	case *lang.ForStmt:
		if s.Init != nil {
			// Init runs once, outside the loop vertex.
			if _, err := b.stmt(s.Init, parent, stack); err != nil {
				return false, err
			}
		}
		loop := b.add(parent, s, &Vertex{Kind: KindLoop, Site: s.ID(), Arm: NoArm})
		bodyStop, err := b.blockStop(s.Body, loop, stack)
		if err != nil {
			return false, err
		}
		loop.Returns = bodyStop
		if s.Post != nil && !bodyStop {
			// Post runs each iteration, inside the loop vertex, after the
			// body; it is dead code when the body always returns.
			if _, err := b.stmt(s.Post, loop, stack); err != nil {
				return false, err
			}
		}
		return false, nil
	case *lang.WhileStmt:
		loop := b.add(parent, s, &Vertex{Kind: KindLoop, Site: s.ID(), Arm: NoArm})
		bodyStop, err := b.blockStop(s.Body, loop, stack)
		loop.Returns = bodyStop
		return false, err
	}
	return false, fmt.Errorf("cst: unknown statement %T", s)
}

// blockStop expands a block and reports whether its statically-last reachable
// statement unconditionally returns.
func (b *builder) blockStop(blk *lang.Block, parent *Vertex, stack []frame) (bool, error) {
	for _, s := range blk.Stmts {
		stop, err := b.stmt(s, parent, stack)
		if err != nil {
			return false, err
		}
		if stop {
			return true, nil
		}
	}
	return false, nil
}

// exprCalls adds vertices for every call in e, in evaluation order.
func (b *builder) exprCalls(e lang.Expr, parent *Vertex, stack []frame) error {
	var firstErr error
	lang.WalkCallsInEvalOrder(e, func(call *lang.CallExpr) {
		if firstErr != nil {
			return
		}
		firstErr = b.call(call, parent, stack)
	})
	return firstErr
}

func (b *builder) call(call *lang.CallExpr, parent *Vertex, stack []frame) error {
	if op := trace.OpByName(call.Name); op != trace.OpNone {
		parent.addChild(&Vertex{Kind: KindComm, Site: call.ID(), Arm: NoArm, Op: op})
		b.vertices++
		return nil
	}
	if call.Intrinsic != nil {
		return nil // compute/min/max/log2 never reach the tracer
	}
	callee := call.Func
	if callee == nil {
		return fmt.Errorf("cst: call to unknown function %q", call.Name)
	}
	// Recursion cut: a call to a function currently being expanded becomes a
	// RecCall vertex looping back to the matching ancestor (paper Figure 8's
	// internal recursive calls become branch-outcome-recording vertices).
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].name == call.Name {
			b.add(parent, call, &Vertex{
				Kind: KindRecCall, Site: call.ID(), Arm: NoArm,
				Callee: call.Name, Target: stack[i].vertex,
			})
			return nil
		}
	}
	v := b.add(parent, call, &Vertex{
		Kind: KindCall, Site: call.ID(), Arm: NoArm,
		Callee:    call.Name,
		Recursive: callee.Recursive,
	})
	var err error
	if callee.Recursive {
		err = b.expandBody(callee, v, stack)
	} else {
		err = b.inline(callee, v)
	}
	if err == nil && b.vertices > vertexBudget {
		err = fmt.Errorf("cst: call to %s at %s exceeds the budget of %d vertices", call.Name, call.Pos(), vertexBudget)
	}
	return err
}

// inline expands fn's body under v. fn is on no call cycle, so every RecCall
// in its expansion targets a vertex inside it, and one pruned tree serves
// every calling context: the first call expands and prunes the body in place
// and later calls copy it. Pruning is idempotent: instance and copies prune
// to themselves again inside the caller's tree.
func (b *builder) inline(fn *lang.FuncDecl, v *Vertex) error {
	if first := b.pruned[fn]; first != nil {
		b.instantiate(first, v)
		return nil
	}
	b.pruned[fn] = v
	err := b.expandBody(fn, v, nil)
	prune(v)
	return err
}

// instantiate appends a copy of from's children to to. A RecCall's target is
// one of its ancestors inside from's tree, so its copy points at the copy as
// many levels above it.
func (b *builder) instantiate(from, to *Vertex) {
	for _, c := range from.Children {
		n := *c
		n.Children = make([]*Vertex, 0, len(c.Children))
		to.addChild(&n)
		if c.Target != nil {
			n.Target = &n
			for u := c; u != c.Target; u = u.Parent {
				n.Target = n.Target.Parent
			}
		}
		b.vertices++
		b.instantiate(c, &n)
	}
}

// prune removes every subtree that cannot produce an MPI event: the two-step
// iterative leaf deletion of Section III-B, generalized to keep RecCall
// vertices whose loop-back target contains communication.
func prune(root *Vertex) {
	computeHasComm(root)
	keepRecCalls(root)
	keepReturns(root)
	var rec func(v *Vertex)
	rec = func(v *Vertex) {
		kept := v.Children[:0]
		for _, c := range v.Children {
			if c.hasComm {
				rec(c)
				kept = append(kept, c)
			}
		}
		clear(v.Children[len(kept):]) // so pruned subtrees can be collected
		v.Children = kept
	}
	rec(root)
}

func computeHasComm(v *Vertex) bool {
	v.hasComm = v.Kind == KindComm
	for _, c := range v.Children {
		if computeHasComm(c) {
			v.hasComm = true
		}
	}
	return v.hasComm
}

// keepReturns preserves Returns-flagged vertices whose enclosing function
// (nearest Call or Root ancestor) contains communication: replay needs their
// taken/iteration data to know when execution unwound early past comm
// vertices. Returns inside entirely comm-free functions stay prunable.
func keepReturns(root *Vertex) {
	var walk func(v *Vertex)
	walk = func(v *Vertex) {
		if v.Returns && !v.hasComm {
			boundary := v.Parent
			for boundary != nil && boundary.Kind != KindCall && boundary.Kind != KindRoot {
				boundary = boundary.Parent
			}
			if boundary != nil && boundary.hasComm {
				for u := v; u != nil && !u.hasComm; u = u.Parent {
					u.hasComm = true
				}
			}
		}
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(root)
}

// keepRecCalls marks RecCall vertices (and their ancestor chains) as live when
// their target's subtree contains communication: re-entering that subtree can
// produce events even though the RecCall itself is a leaf. Keeping one RecCall
// can give another's target communication, so it runs to a fixed point.
func keepRecCalls(root *Vertex) {
	var recCalls []*Vertex
	var collect func(v *Vertex)
	collect = func(v *Vertex) {
		if v.Kind == KindRecCall {
			recCalls = append(recCalls, v)
		}
		for _, c := range v.Children {
			collect(c)
		}
	}
	collect(root)
	for changed := true; changed; {
		changed = false
		for _, rc := range recCalls {
			if rc.Target.hasComm && !rc.hasComm {
				for v := rc; v != nil && !v.hasComm; v = v.Parent {
					v.hasComm = true
				}
				changed = true
			}
		}
	}
}

// markSites writes onto every loop, if and user-call node whether the pruned
// CST keeps its vertex, arm by arm for an if. The interpreter emits structure
// markers only for marked sites, as the paper instruments only CST vertices
// (Figure 9). Whether a vertex survives depends on what its subtree and its
// callees can reach, not on the calling context, so every expansion of a site
// must agree; one that does not is an error, since the runtime could not mark
// the site for one context without marking it for all.
func markSites(sites []siteVertex) error {
	type key struct {
		node lang.Node
		arm  int8
	}
	kept := make(map[key]bool, len(sites))
	for _, s := range sites {
		k := key{s.node, max(s.v.Arm, 0)}
		if prev, seen := kept[k]; seen && prev != s.v.hasComm {
			return fmt.Errorf("cst: %s site %d (arm %d) at %s is kept in one calling context and pruned in another",
				s.v.Kind, s.node.ID(), k.arm, s.node.Pos())
		}
		kept[k] = s.v.hasComm
	}
	for k, keep := range kept {
		switch n := k.node.(type) {
		case *lang.IfStmt:
			n.ArmMarked[k.arm] = keep
		case *lang.ForStmt:
			n.Marked = keep
		case *lang.WhileStmt:
			n.Marked = keep
		case *lang.CallExpr:
			n.Marked = keep
		}
	}
	return nil
}

// assignGIDs numbers vertices in pre-order, fills the GID index and numbers
// each payload table.
func assignGIDs(t *Tree) {
	t.ByGID = t.ByGID[:0]
	t.Walk(func(v *Vertex, _ int) {
		v.GID = int32(len(t.ByGID))
		t.ByGID = append(t.ByGID, v)
	})
	t.assignOrds()
}
