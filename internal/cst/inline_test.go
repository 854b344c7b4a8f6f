package cst

import (
	"fmt"
	"strings"
	"testing"
)

// TestCopiedBodiesRetargetRecCalls: a function on no call cycle is built
// once and copied to each call site, and a recursion inside the copy loops
// back to the copy's own pseudo-loop vertex.
func TestCopiedBodiesRetargetRecCalls(t *testing.T) {
	tree := build(t, `
func main() { w(); w(); }
func w() { f(2); }
func f(n) { if n > 0 { bcast(0, 8); f(n - 1); } }`)
	if len(tree.Root.Children) != 2 {
		t.Fatalf("want two call vertices:\n%s", tree.Dump())
	}
	recCalls := 0
	tree.Walk(func(v *Vertex, _ int) {
		if v.Kind != KindRecCall {
			return
		}
		recCalls++
		u := v.Parent
		for u != nil && u != v.Target {
			u = u.Parent
		}
		if u == nil || v.Target.Callee != "f" || !v.Target.Recursive {
			t.Fatalf("RecCall GID %d does not loop back to its own copy's f:\n%s", v.GID, tree.Dump())
		}
	})
	if recCalls != 2 {
		t.Fatalf("rec calls = %d, want 2\n%s", recCalls, tree.Dump())
	}
}

// callChain is main calling f0, and fI calling fI+1 twice for I < k, with
// bottom as the body of fk: the CST doubles at each level unless fk is
// comm-free.
func callChain(k int, bottom string) string {
	var sb strings.Builder
	sb.WriteString("func main() { f0(); }\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "func f%d() { f%d(); f%d(); }\n", i, i+1, i+1)
	}
	fmt.Fprintf(&sb, "func f%d() { %s }\n", k, bottom)
	return sb.String()
}

// TestBuildBudget: a comm-free call chain costs one pruned body per
// function, and a communicating one is refused at the call site where the
// tree crosses vertexBudget.
func TestBuildBudget(t *testing.T) {
	if tree := build(t, callChain(30, "compute(1);")); tree.NumVertices() != 1 {
		t.Fatalf("comm-free chain should prune to bare root:\n%s", tree.Dump())
	}
	_, err := Build(checked(t, callChain(30, "barrier();")))
	if err == nil || !strings.Contains(err.Error(), "budget") || !strings.Contains(err.Error(), "call to f") {
		t.Fatalf("communicating chain: err = %v, want the budget error naming a call site", err)
	}
}
