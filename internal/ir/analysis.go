package ir

import (
	"fmt"
	"sort"

	"repro/internal/lang"
)

// Dominators computes the immediate-dominator tree of f using the
// Cooper-Harvey-Kennedy iterative algorithm. idom[entry] == entry.
func Dominators(f *Func) []int {
	n := len(f.Blocks)
	if n == 0 {
		return nil
	}
	// Reverse post-order.
	rpo := postOrder(f)
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	rpoNum := make([]int, n)
	for i, b := range rpo {
		rpoNum[b.ID] = i
	}
	const undef = -1
	idom := make([]int, n)
	for i := range idom {
		idom[i] = undef
	}
	entry := f.Blocks[0]
	idom[entry.ID] = entry.ID

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			newIdom := undef
			for _, p := range b.Preds {
				if idom[p.ID] == undef {
					continue
				}
				if newIdom == undef {
					newIdom = p.ID
				} else {
					newIdom = intersect(p.ID, newIdom)
				}
			}
			if newIdom != undef && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// PostDominators computes immediate post-dominators over the reversed CFG
// with a virtual exit node. The returned slice has len(f.Blocks) entries;
// entry i holds the block ID of i's immediate post-dominator, or len(f.Blocks)
// (the virtual exit) when the nearest post-dominator is the function exit
// itself. The CST builder uses this to validate branch join points.
func PostDominators(f *Func) []int {
	n := len(f.Blocks)
	if n == 0 {
		return nil
	}
	// Reverse graph: node n is the virtual exit; edges s->b for every CFG
	// edge b->s, plus exit->b for every Ret block.
	preds := make([][]int, n+1) // preds in the reverse graph = succs in CFG
	for _, b := range f.Blocks {
		if b.Term == nil {
			continue
		}
		ss := b.Term.successors()
		if len(ss) == 0 {
			preds[b.ID] = append(preds[b.ID], n)
		}
		for _, s := range ss {
			preds[b.ID] = append(preds[b.ID], s.ID)
		}
	}
	// Post-order of the reverse graph from the virtual exit.
	radj := make([][]int, n+1) // successors in the reverse graph = CFG preds
	for _, b := range f.Blocks {
		for _, p := range b.Preds {
			radj[b.ID] = append(radj[b.ID], p.ID)
		}
		if b.Term != nil && len(b.Term.successors()) == 0 {
			radj[n] = append(radj[n], b.ID)
		}
	}
	seen := make([]bool, n+1)
	var po []int
	var visit func(v int)
	visit = func(v int) {
		seen[v] = true
		for _, w := range radj[v] {
			if !seen[w] {
				visit(w)
			}
		}
		po = append(po, v)
	}
	visit(n)
	rpoNum := make([]int, n+1)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i := len(po) - 1; i >= 0; i-- {
		rpoNum[po[i]] = len(po) - 1 - i
	}
	const undef = -1
	ipdom := make([]int, n+1)
	for i := range ipdom {
		ipdom[i] = undef
	}
	ipdom[n] = n
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = ipdom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = ipdom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := len(po) - 1; i >= 0; i-- {
			v := po[i]
			if v == n {
				continue
			}
			newIpdom := undef
			for _, p := range preds[v] {
				if rpoNum[p] == -1 || ipdom[p] == undef {
					continue
				}
				if newIpdom == undef {
					newIpdom = p
				} else {
					newIpdom = intersect(p, newIpdom)
				}
			}
			if newIpdom != undef && ipdom[v] != newIpdom {
				ipdom[v] = newIpdom
				changed = true
			}
		}
	}
	return ipdom[:n]
}

// postOrder returns the blocks of f in CFG post-order from the entry.
func postOrder(f *Func) []*Block {
	seen := make([]bool, len(f.Blocks))
	var out []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		seen[b.ID] = true
		// Visit successors in reverse so the reverse post-order lists the
		// true arm / loop body before the false arm / loop exit, which keeps
		// derived orders (e.g. call-graph callee lists) in execution order.
		for i := len(b.Succs) - 1; i >= 0; i-- {
			if s := b.Succs[i]; !seen[s.ID] {
				visit(s)
			}
		}
		out = append(out, b)
	}
	if len(f.Blocks) > 0 {
		visit(f.Blocks[0])
	}
	return out
}

// dominates reports whether block a dominates block b under idom.
func dominates(idom []int, a, b int) bool {
	for {
		if b == a {
			return true
		}
		next := idom[b]
		if next == b {
			return false // reached entry
		}
		b = next
	}
}

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	Header *Block
	// Blocks is the loop body including the header, sorted by block ID.
	Blocks []*Block
	// Site is the AST loop statement annotated on the header.
	Site lang.NodeID
}

// NaturalLoops finds all natural loops of f with the classic dominator-based
// back-edge algorithm (paper Algorithm 1 cites Muchnick). Back edges sharing
// a header are merged into a single loop.
func NaturalLoops(f *Func) []*Loop {
	idom := Dominators(f)
	bodies := map[*Block]map[*Block]bool{} // header -> member set
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if dominates(idom, s.ID, b.ID) {
				// b -> s is a back edge with header s.
				body := bodies[s]
				if body == nil {
					body = map[*Block]bool{s: true}
					bodies[s] = body
				}
				collectNaturalLoop(body, b, s)
			}
		}
	}
	var loops []*Loop
	for header, body := range bodies {
		l := &Loop{Header: header, Site: header.LoopSite}
		for blk := range body {
			l.Blocks = append(l.Blocks, blk)
		}
		sort.Slice(l.Blocks, func(i, j int) bool { return l.Blocks[i].ID < l.Blocks[j].ID })
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i].Header.ID < loops[j].Header.ID })
	return loops
}

// collectNaturalLoop walks predecessors from the back-edge source n until
// reaching the header h, adding every block on the way.
func collectNaturalLoop(body map[*Block]bool, n, h *Block) {
	if body[n] {
		return
	}
	body[n] = true
	var stack []*Block
	stack = append(stack, n)
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range m.Preds {
			if !body[p] {
				body[p] = true
				stack = append(stack, p)
			}
		}
	}
	_ = h // header is pre-seeded in body, bounding the walk
}

// VerifyLoopAnnotations cross-checks the dominator-based loop finder against
// the lowering annotations: every annotated loop header must be discovered
// with exactly its annotation, and no unannotated loops may exist (MPL has
// no goto, so all loops are structured). The one annotated header that is no
// natural loop is one no path leads back to: a loop whose body always
// returns or breaks has no back edge, and runs its body at most once. This is
// a safety net for the static analysis, mirroring how the paper trusts LLVM's
// LoopInfo.
func VerifyLoopAnnotations(f *Func) error {
	loops := NaturalLoops(f)
	found := map[lang.NodeID]bool{}
	for _, l := range loops {
		if l.Site == lang.NoNode {
			return fmt.Errorf("ir: %s: natural loop at b%d has no source annotation", f.Name, l.Header.ID)
		}
		if found[l.Site] {
			return fmt.Errorf("ir: %s: loop site %d discovered twice", f.Name, l.Site)
		}
		found[l.Site] = true
	}
	for _, b := range f.Blocks {
		if b.LoopSite != lang.NoNode && !found[b.LoopSite] && returnsTo(b) {
			return fmt.Errorf("ir: %s: annotated loop @%d not found by dominator analysis", f.Name, b.LoopSite)
		}
	}
	return nil
}

// returnsTo reports whether some path of one or more edges leads from b back
// to b.
func returnsTo(b *Block) bool {
	seen := map[*Block]bool{}
	stack := append([]*Block(nil), b.Succs...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == b {
			return true
		}
		if !seen[n] {
			seen[n] = true
			stack = append(stack, n.Succs...)
		}
	}
	return false
}

// CallGraph is the program call graph (PCG) over user-defined functions.
type CallGraph struct {
	// Callees maps a function to the user functions it may invoke
	// (deduplicated, in first-call order).
	Callees map[string][]string
}

// BuildCallGraph constructs the PCG from call instructions.
func BuildCallGraph(p *Program) *CallGraph {
	cg := &CallGraph{Callees: map[string][]string{}}
	for _, f := range p.Funcs {
		seen := map[string]bool{}
		cg.Callees[f.Name] = nil
		rpo := postOrder(f)
		for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
			rpo[i], rpo[j] = rpo[j], rpo[i]
		}
		for _, b := range rpo {
			for _, in := range b.Instrs {
				call, ok := in.(*CallInstr)
				if !ok {
					continue
				}
				if _, user := p.ByName[call.Callee]; user && !seen[call.Callee] {
					seen[call.Callee] = true
					cg.Callees[f.Name] = append(cg.Callees[f.Name], call.Callee)
				}
			}
		}
	}
	return cg
}

// PostOrderFrom returns functions reachable from root in PCG post-order
// (callees before callers), the traversal order Algorithm 2 uses for its
// bottom-up inlining. Cycles (recursion) are broken at the first repeated
// visit.
func (cg *CallGraph) PostOrderFrom(root string) []string {
	var out []string
	seen := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		seen[name] = true
		for _, c := range cg.Callees[name] {
			if !seen[c] {
				visit(c)
			}
		}
		out = append(out, name)
	}
	visit(root)
	return out
}
