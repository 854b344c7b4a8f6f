package replay

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/lang"
	"repro/internal/timestat"
	"repro/internal/trace"
)

func buildTree(t *testing.T, src string) *cst.Tree {
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
	return tree
}

// bind lays src's records out in slot order, as a consumer of skeletons must.
func bind(src Source) (recs []*ctt.CommRecord) {
	for gid := 0; gid < src.Tree().NumVertices(); gid++ {
		recs = append(recs, src.Records(int32(gid))...)
	}
	return recs
}

// leafView is a valid one-leaf view: the root's Init and Finalize, one loop
// activation, and under it a comm leaf holding a generated payload whose
// record list the loop's trip count consumes exactly. want is the payload's
// expansion — (record index, occurrence) in order — computed here from the
// records and the cycle, not by the walk.
type leafView struct {
	src  *ctt.RankCTT
	leaf ctt.VData
	want [][2]int
}

// genLeafView draws a payload of one to four records with run lengths one to
// three and, one time in three, a record cycle of two or three repetitions,
// from rng, and wraps it in a view. Sizes, tags and peers — nothing the walk
// reads — are drawn from fields.
func genLeafView(rng, fields *rand.Rand, tree *cst.Tree, loop, leaf *cst.Vertex) leafView {
	stat := func() timestat.Stat { return timestat.Make(timestat.ModeMeanStddev) }
	rec := func(op trace.Op) *ctt.CommRecord {
		return &ctt.CommRecord{Ev: trace.Event{Op: op, Peer: trace.NoPeer, GID: -1}, Count: 1, Time: stat(), Compute: stat()}
	}
	c := &ctt.RankCTT{CST: tree, Leaves: make([]ctt.Leaf, tree.NumLeaves()), Ctl: make([]ctt.Ctl, tree.NumCtl())}
	c.Data(tree.Root.GID).Leaf.Records = []*ctt.CommRecord{rec(trace.OpInit), rec(trace.OpFinalize)}

	d := c.Data(leaf.GID).Leaf
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		r := rec(trace.OpSend)
		r.Ev.Size, r.Ev.Tag, r.Ev.Peer = 8*fields.Intn(64), fields.Intn(4), fields.Intn(16)
		r.Count = int64(1 + rng.Intn(3))
		d.Records = append(d.Records, r)
	}
	cy := ctt.Cycle{Reps: 1}
	if rng.Intn(3) == 0 {
		cy.Start = int32(rng.Intn(n))
		cy.Len = int32(1 + rng.Intn(n-int(cy.Start)))
		cy.Reps = int64(2 + rng.Intn(2))
		d.Cycles = []ctt.Cycle{cy}
	}
	var want [][2]int
	for i := 0; i < n; {
		reps, block := int64(1), 1
		if len(d.Cycles) == 1 && int32(i) == cy.Start {
			reps, block = cy.Reps, int(cy.Len)
		}
		for ; reps > 0; reps-- {
			for j := i; j < i+block; j++ {
				for k := 0; k < int(d.Records[j].Count); k++ {
					want = append(want, [2]int{j, k})
				}
			}
		}
		i += block
	}
	c.Data(loop.GID).Ctl.Vector.Append(int64(len(want)))
	return leafView{src: c, leaf: ctt.VData{Leaf: d}, want: want}
}

// TestSameShapeIsSameSteps is the contract between ctt.VData.SameShape and
// the walk, as a property over generated leaf payloads: two views that differ
// in one leaf build equal skeletons exactly when the two payloads are the same
// shape, the same shape implies the same ShapeKey, and a skeleton built from
// one view replays the other's own records — its sizes, tags and peers — when
// the shapes agree. Each skeleton is also held to the payload's expansion,
// which pins the slot numbering.
func TestSameShapeIsSameSteps(t *testing.T) {
	tree := buildTree(t, `func main() { for var i = 0; i < 8; i = i + 1 { send(rank + 1, 64, 0); } }`)
	var loop, leaf *cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		switch v.Kind {
		case cst.KindLoop:
			loop = v
		case cst.KindComm:
			leaf = v
		}
	})
	if loop == nil || leaf == nil || loop.GID > leaf.GID {
		t.Fatal("fixture tree is not root, loop, leaf")
	}
	rng := rand.New(rand.NewSource(23))
	same, differ := 0, 0
	for iter := 0; iter < 4000; iter++ {
		// Half the pairs draw their shapes from one seed, so both sides of
		// the equivalence are exercised.
		seedA := rng.Int63()
		seedB := seedA
		if iter%2 == 1 {
			seedB = rng.Int63()
		}
		a := genLeafView(rand.New(rand.NewSource(seedA)), rng, tree, loop, leaf)
		b := genLeafView(rand.New(rand.NewSource(seedB)), rng, tree, loop, leaf)
		sa, err := Skeleton(a.src, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := Skeleton(b.src, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Slots: the root's two records come first, then the leaf's.
		if len(sa) != len(a.want)+2 || sa[0] != (Step{Slot: 0}) || sa[len(sa)-1] != (Step{Slot: 1}) {
			t.Fatalf("iter %d: skeleton of %d steps for %d leaf occurrences, or Init/Finalize off slots 0/1", iter, len(sa), len(a.want))
		}
		for i, w := range a.want {
			if got := sa[i+1]; got != (Step{Slot: uint32(2 + w[0]), K: uint32(w[1])}) {
				t.Fatalf("iter %d: step %d is %+v, the payload expands to record %d occurrence %d", iter, i+1, got, w[0], w[1])
			}
		}
		shape := a.leaf.SameShape(b.leaf)
		if shape != b.leaf.SameShape(a.leaf) {
			t.Fatalf("iter %d: SameShape is not symmetric", iter)
		}
		if steps := reflect.DeepEqual(sa, sb); steps != shape {
			t.Fatalf("iter %d: SameShape = %v but equal skeletons = %v", iter, shape, steps)
		}
		if !shape {
			differ++
			continue
		}
		same++
		if a.leaf.ShapeKey() != b.leaf.ShapeKey() {
			t.Fatalf("iter %d: same shape, different ShapeKey", iter)
		}
		wantB, err := Sequence(b.src, 1)
		if err != nil {
			t.Fatal(err)
		}
		var gotB []trace.Event
		EmitSkeleton(sa, bind(b.src), 1, func(e *trace.Event) { gotB = append(gotB, *e) })
		if !reflect.DeepEqual(wantB, gotB) {
			t.Fatalf("iter %d: b replayed through a's skeleton differs from b's own walk", iter)
		}
	}
	if same < 1000 || differ < 1000 {
		t.Fatalf("%d same-shape pairs and %d differing: the generator covers one side only", same, differ)
	}
}
