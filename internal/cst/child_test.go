package cst

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/trace"
)

// handTree numbers a hand-built tree the way Build does. It skips the sibling
// check on purpose: the tests below feed Decode trees Build never produces.
func handTree(children ...*Vertex) *Tree {
	root := &Vertex{Kind: KindRoot, Site: lang.NoNode, Arm: NoArm}
	for _, c := range children {
		root.addChild(c)
	}
	t := &Tree{Root: root, FuncName: "main"}
	assignGIDs(t)
	return t
}

func comm(site lang.NodeID) *Vertex {
	return &Vertex{Kind: KindComm, Site: site, Arm: NoArm, Op: trace.OpBarrier}
}

func arm(site lang.NodeID, a int8) *Vertex {
	v := &Vertex{Kind: KindBranch, Site: site, Arm: a}
	v.addChild(comm(site + 1000))
	return v
}

func encoded(t testing.TB, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChildFanout checks the program-order scan at a typical, the widest
// measured and an absurd fan-out: every key resolves to its own vertex, and a
// site that is absent, present under another arm, or pruned resolves to nil.
func TestChildFanout(t *testing.T) {
	for _, fanout := range []int{1, 16, 256} {
		t.Run(fmt.Sprint(fanout), func(t *testing.T) {
			var kids []*Vertex
			for i := 0; i < fanout; i++ {
				kids = append(kids, comm(lang.NodeID(10+i)))
			}
			// An if whose then-arm was pruned, then one with both arms.
			kids = append(kids, arm(5000, 1), arm(5001, 0), arm(5001, 1))
			tree := handTree(kids...)
			if err := tree.Root.checkChildren(map[uint64]bool{}); err != nil {
				t.Fatal(err)
			}
			for _, c := range tree.Root.Children {
				if got := tree.Root.Child(c.Site, c.Arm); got != c {
					t.Fatalf("Child(%d, %d) = %v, want GID %d", c.Site, c.Arm, got, c.GID)
				}
			}
			for _, miss := range []struct {
				site lang.NodeID
				arm  int8
			}{
				{9, NoArm},                         // no such site
				{lang.NodeID(10 + fanout), NoArm},  // one past the last comm site
				{10, 0},                            // comm site asked for as a branch arm
				{5000, 0},                          // pruned then-arm
				{5001, NoArm},                      // branch site asked for without an arm
				{lang.NodeID(10 + fanout/2), 1},    // comm site, wrong arm
				{tree.Root.Children[0].Site, 0x7f}, // arm no vertex has
			} {
				if got := tree.Root.Child(miss.site, miss.arm); got != nil {
					t.Fatalf("Child(%d, %d) = GID %d, want nil", miss.site, miss.arm, got.GID)
				}
			}
			if leaf := tree.Root.Children[0]; leaf.Child(10, NoArm) != nil {
				t.Fatal("a leaf has no children to find")
			}
		})
	}
}

// brokenSiblings are the two child lists Decode must refuse now that Child
// returns the first match and a site's reach counter sits on its first arm: a
// repeated (site, arm) key, and one if site whose arms are split by a sibling.
func brokenSiblings() []brokenTree {
	loop := &Vertex{Kind: KindLoop, Site: 3, Arm: NoArm, Children: []*Vertex{arm(7, 0), arm(9, 0), arm(7, 1)}}
	then := &Vertex{Kind: KindBranch, Site: 7, Arm: 0, Children: []*Vertex{comm(1007), comm(1007)}}
	return []brokenTree{
		{"duplicate child key {site:7 arm:0} under GID 0", handTree(arm(7, 0), arm(7, 0))},
		{"duplicate child key {site:7 arm:-1} under GID 0", handTree(comm(7), comm(8), comm(7))},
		{"duplicate child key {site:1007 arm:-1} under GID 1", handTree(then)},
		{"arms of branch site 7 are not adjacent under GID 0", handTree(arm(7, 0), comm(8), arm(7, 1))},
		{"arms of branch site 7 are not adjacent under GID 0", handTree(arm(7, 1), arm(9, 1), arm(7, 0))},
		{"arms of branch site 7 are not adjacent under GID 1", handTree(loop)},
	}
}

type brokenTree struct {
	want string // what Decode's error must contain
	tree *Tree
}

func TestDecodeRejectsBrokenSiblings(t *testing.T) {
	for _, b := range brokenSiblings() {
		_, err := Decode(encoded(t, b.tree))
		if err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("Decode = %v, want error containing %q\n%s", err, b.want, b.tree.Dump())
		}
	}
	// Adjacent arms in either order, and a comm leaf reusing a branch's site
	// number under another arm value, are all distinct keys: accepted.
	for _, tree := range []*Tree{
		handTree(arm(7, 1), arm(7, 0), comm(7)),
		handTree(arm(7, 0), arm(8, 0), arm(8, 1), arm(9, 1)),
	} {
		if _, err := Decode(encoded(t, tree)); err != nil {
			t.Errorf("Decode: %v\n%s", err, tree.Dump())
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the text decoder: it must return an
// error or a tree on which the runtime's lookups are sound — never panic.
// For every accepted tree, each child is found under its parent by its own
// key (so no earlier sibling shadows it), each if site opens one run of arms,
// and Encode∘Decode is the identity on the encoding.
func FuzzDecode(f *testing.F) {
	for _, src := range []string{fig5Src, `
func main() { f(2); }
func f(n) { if n > 0 { bcast(0, 8); f(n - 1); } }`} {
		f.Add(encoded(f, build(f, src)))
	}
	for _, b := range brokenSiblings() {
		f.Add(encoded(f, b.tree))
	}
	f.Add([]byte(magic + " 1 main\n0 0 -1 -1 0 0 0 -1 \"\"\n0\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tree, err := Decode(in)
		if err != nil {
			return
		}
		tree.Walk(func(v *Vertex, _ int) {
			opened := map[lang.NodeID]bool{}
			for i, c := range v.Children {
				if got := v.Child(c.Site, c.Arm); got != c {
					t.Fatalf("GID %d is shadowed by GID %d under GID %d", c.GID, got.GID, v.GID)
				}
				if c.Kind != KindBranch || (i > 0 && v.Children[i-1].Kind == KindBranch && v.Children[i-1].Site == c.Site) {
					continue
				}
				if opened[c.Site] {
					t.Fatalf("branch site %d opens two runs of arms under GID %d", c.Site, v.GID)
				}
				opened[c.Site] = true
			}
		})
		enc := encoded(t, tree)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of re-encoded tree: %v", err)
		}
		if !bytes.Equal(enc, encoded(t, again)) {
			t.Fatal("Encode∘Decode is not the identity on an encoding")
		}
	})
}
