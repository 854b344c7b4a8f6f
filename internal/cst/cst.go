// Package cst implements the Communication Structure Tree, the static data
// structure at the heart of CYPRESS (paper Section III).
//
// The CST is an ordered tree extracted at compile time. Leaf vertices are MPI
// communication invocations; interior vertices are loop, branch, and call
// structures. A pre-order traversal of the CST matches the static structure
// of the program, so the runtime can track the currently-executing vertex
// with a cursor and "fill in" event details top-down.
//
// Construction follows the paper, on the checked MPL AST instead of LLVM's
// CFG:
//   - each procedure's tree comes from its control structure (Algorithm 1).
//     MPL's control flow is structured, so its loop statements are exactly
//     the natural loops of its CFG; the package's tests lower every program
//     they build to a CFG and check each loop and branch vertex against it;
//   - call sites get copies of their callees' pruned trees (Algorithm 2),
//     built once per function on no call cycle; calls into a recursion cycle
//     expand top-down, a stack of the expansions in progress cutting it;
//   - recursive calls are converted into pseudo-loop structures: the call
//     vertex that enters a recursion cycle acts as a loop recording recursion
//     depth, and calls back to an in-progress function become RecCall
//     vertices that "loop back" to the matching ancestor (paper Figure 8);
//   - a pruning pass removes every subtree that cannot produce an MPI event.
//
// One deliberate representation difference from the paper: call vertices are
// retained rather than spliced away during inlining. Each call site owns a
// distinct subtree either way; keeping the vertex gives the runtime cursor an
// unambiguous descent key when the same function is called twice in a row.
package cst

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/lang"
	"repro/internal/trace"
)

// Kind classifies a CST vertex.
type Kind uint8

const (
	KindRoot Kind = iota
	KindLoop
	KindBranch
	KindCall
	KindComm
	KindRecCall
)

var kindNames = [...]string{"Root", "Loop", "Br", "Call", "Comm", "RecCall"}

func (k Kind) String() string { return kindNames[k] }

// NoArm marks vertices that are not branch arms.
const NoArm int8 = -1

// Vertex is one node of the CST.
type Vertex struct {
	Kind Kind
	// GID is the unique pre-order global id (paper Section III-A), assigned
	// after pruning. The instrumented runtime reports GIDs to the compressor.
	GID int32
	// Site is the AST node of the source construct: the loop statement, the
	// if statement, or the call expression. Together with Arm it uniquely
	// keys a child under its parent.
	Site lang.NodeID
	// Arm is the branch path index for KindBranch (0 = then, 1 = else);
	// NoArm otherwise.
	Arm int8
	// Op is the MPI operation for KindComm leaves.
	Op trace.Op
	// Callee is the function name for KindCall and KindRecCall.
	Callee string
	// Recursive marks call vertices that enter a recursion cycle; such a
	// vertex doubles as the paper's pseudo-loop, recording recursion depth.
	Recursive bool
	// Returns marks a branch arm whose statically-last statement is an
	// unconditional return, or a loop whose body always returns. Replay
	// unwinds to the enclosing call boundary after traversing such a vertex,
	// keeping the decompressed sequence aligned with what actually ran.
	// Vertices with Returns set survive pruning even when comm-free.
	Returns bool
	// Target is the ancestor vertex a RecCall loops back to.
	Target *Vertex

	Parent   *Vertex
	Children []*Vertex

	hasComm bool
}

// Child returns the child with the given site and arm, or nil. The runtime
// cursor uses this for descent; the interpreter marks only the sites the CST
// keeps, so a marker whose site has no child is a protocol error.
// It scans Children in program order: the widest vertex of any npb CST at
// paper scale has 16 children (DESIGN.md §5), where a scan beats hashing the
// key, and markers arrive in program order, so hits come early.
func (v *Vertex) Child(site lang.NodeID, arm int8) *Vertex {
	for _, c := range v.Children {
		if c.Site == site && c.Arm == arm {
			return c
		}
	}
	return nil
}

func (v *Vertex) addChild(c *Vertex) *Vertex {
	c.Parent = v
	v.Children = append(v.Children, c)
	return c
}

// checkChildren verifies, for v and every descendant, what Child and the
// branch reach counters rely on: (site, arm) keys are unique under one parent,
// and the arms of one if site are adjacent siblings, because the site's reach
// counter lives at the first of them (ctt.Compressor.BranchEnter, replay's
// walkBody). Build emits arm 0 then arm 1 and never repeats a call expression
// under one parent, so only a decoded file fails here. seen is scratch.
func (v *Vertex) checkChildren(seen map[uint64]bool) error {
	clear(seen)
	for i, c := range v.Children {
		key := uint64(uint32(c.Site))<<8 | uint64(uint8(c.Arm))
		if seen[key] {
			return fmt.Errorf("cst: duplicate child key {site:%d arm:%d} under GID %d", c.Site, c.Arm, v.GID)
		}
		seen[key] = true
		if c.Kind != KindBranch || i > 0 && v.Children[i-1].Kind == KindBranch && v.Children[i-1].Site == c.Site {
			continue
		}
		// c opens a run of arms; a site may open only one.
		run := uint64(uint32(c.Site)) | 1<<40
		if seen[run] {
			return fmt.Errorf("cst: arms of branch site %d are not adjacent under GID %d", c.Site, v.GID)
		}
		seen[run] = true
	}
	for _, c := range v.Children {
		if err := c.checkChildren(seen); err != nil {
			return err
		}
	}
	return nil
}

// Tree is a complete program CST.
type Tree struct {
	Root *Vertex
	// ByGID indexes vertices by GID in pre-order; ByGID[0] is the root.
	ByGID []*Vertex
	// FuncName records the program entry function ("main").
	FuncName string

	hashOnce sync.Once // guards hash, see Hash
	hash     uint64
}

// NumVertices returns the number of vertices after pruning.
func (t *Tree) NumVertices() int { return len(t.ByGID) }

// Walk visits vertices in pre-order.
func (t *Tree) Walk(f func(v *Vertex, depth int)) {
	var rec func(v *Vertex, d int)
	rec = func(v *Vertex, d int) {
		f(v, d)
		for _, c := range v.Children {
			rec(c, d+1)
		}
	}
	rec(t.Root, 0)
}

// Dump renders the tree in the indentation style of paper Figures 6-7.
func (t *Tree) Dump() string {
	var b strings.Builder
	t.Walk(func(v *Vertex, d int) {
		b.WriteString(strings.Repeat("  ", d))
		fmt.Fprintf(&b, "%d:%s", v.GID, v.Kind)
		switch v.Kind {
		case KindComm:
			fmt.Fprintf(&b, ":%s", v.Op)
		case KindCall:
			fmt.Fprintf(&b, ":%s", v.Callee)
			if v.Recursive {
				b.WriteString(" (pseudo-loop)")
			}
		case KindRecCall:
			fmt.Fprintf(&b, ":%s -> %d", v.Callee, v.Target.GID)
		case KindBranch:
			fmt.Fprintf(&b, "[arm %d]", v.Arm)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// Stats summarizes the tree for tooling.
type Stats struct {
	Vertices, Loops, Branches, Calls, CommLeaves, RecCalls int
}

// Stats computes vertex-kind counts.
func (t *Tree) Stats() Stats {
	var s Stats
	t.Walk(func(v *Vertex, _ int) {
		s.Vertices++
		switch v.Kind {
		case KindLoop:
			s.Loops++
		case KindBranch:
			s.Branches++
		case KindCall:
			s.Calls++
		case KindComm:
			s.CommLeaves++
		case KindRecCall:
			s.RecCalls++
		}
	})
	return s
}
