package ctt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cst"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// compile builds the CST for src.
func compile(t testing.TB, src string) (*lang.Program, *cst.Tree) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	tree, err := cst.Build(prog)
	if err != nil {
		t.Fatalf("cst: %v", err)
	}
	return prog, tree
}

// run executes src on n ranks under CYPRESS compression and returns the
// per-rank CTTs.
func run(t testing.TB, src string, n int) (*cst.Tree, []*RankCTT) {
	t.Helper()
	prog, tree := compile(t, src)
	comps := make([]*Compressor, n)
	sinks := make([]trace.Sink, n)
	for i := range comps {
		comps[i] = NewCompressor(tree, i, timestat.ModeMeanStddev)
		sinks[i] = comps[i]
	}
	_, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
		interp.Execute(prog, r)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ctts := make([]*RankCTT, n)
	for i, c := range comps {
		ctts[i] = c.Finish()
	}
	return tree, ctts
}

// findLeaf returns the first comm leaf with the given op.
func findLeaf(tree *cst.Tree, op trace.Op) *cst.Vertex {
	var out *cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		if out == nil && v.Kind == cst.KindComm && v.Op == op {
			out = v
		}
	})
	return out
}

func TestRepeatedIdenticalOpsMergeToOneRecord(t *testing.T) {
	tree, ctts := run(t, `
func main() {
	for var i = 0; i < 100; i = i + 1 {
		bcast(0, 4096);
	}
}`, 2)
	leaf := findLeaf(tree, trace.OpBcast)
	d := ctts[0].Data(leaf.GID)
	if len(d.Records()) != 1 {
		t.Fatalf("records = %d, want 1", len(d.Records()))
	}
	r := d.Records()[0]
	if r.Count != 100 || r.Ev.Size != 4096 || r.Ev.Peer != 0 {
		t.Fatalf("record = %+v", r)
	}
	if r.Time.N != 100 || r.Time.Mean <= 0 {
		t.Fatalf("time stat = %+v", r.Time)
	}
	// Loop vertex has one activation of 100 iterations.
	loop := tree.Root.Children[0]
	ld := ctts[0].Data(loop.GID)
	if ld.Counts().Len() != 1 || ld.Counts().At(0) != 100 {
		t.Fatalf("loop counts = %s", ld.Counts().String())
	}
}

func TestVaryingSizeCreatesRecords(t *testing.T) {
	tree, ctts := run(t, `
func main() {
	for var i = 0; i < 10; i = i + 1 {
		bcast(0, 100 + i);
	}
}`, 1)
	leaf := findLeaf(tree, trace.OpBcast)
	d := ctts[0].Data(leaf.GID)
	if len(d.Records()) != 10 {
		t.Fatalf("records = %d, want 10 (sizes all differ)", len(d.Records()))
	}
}

func TestPaperFig10NestedLoop(t *testing.T) {
	// for i in 0..k: bcast; for j in 0..i: isend irecv waitall
	const k = 8
	tree, ctts := run(t, `
func main() {
	for var i = 0; i < 8; i = i + 1 {
		bcast(0, 64);
		for var j = 0; j < i; j = j + 1 {
			var r1 = isend((rank + 1) % size, 32, 0);
			var r2 = irecv((rank + size - 1) % size, 32, 0);
			waitall();
			compute(r1 + r2);
		}
	}
}`, 2)
	outer := tree.Root.Children[0]
	var inner *cst.Vertex
	for _, c := range outer.Children {
		if c.Kind == cst.KindLoop {
			inner = c
		}
	}
	od := ctts[0].Data(outer.GID)
	id := ctts[0].Data(inner.GID)
	if od.Counts().String() != "[<8>]" {
		t.Fatalf("outer counts = %s", od.Counts().String())
	}
	// Inner iteration counts 0,1,...,7 compress to a single stride run
	// (paper Figure 10's <0,k-1,1>).
	if id.Counts().String() != "[<0,7,1>]" {
		t.Fatalf("inner counts = %s", id.Counts().String())
	}
	// n = k(k-1)/2 total inner executions on the isend leaf.
	leaf := findLeaf(tree, trace.OpIsend)
	ld := ctts[0].Data(leaf.GID)
	var total int64
	for _, r := range ld.Records() {
		total += r.Count
	}
	if total != k*(k-1)/2 {
		t.Fatalf("isend executions = %d, want %d", total, k*(k-1)/2)
	}
	if len(ld.Records()) != 1 {
		t.Fatalf("isend records = %d, want 1", len(ld.Records()))
	}
}

func TestPaperFig11BranchAlternation(t *testing.T) {
	tree, ctts := run(t, `
func main() {
	for var i = 0; i < 10; i = i + 1 {
		if i % 2 == 0 {
			var r = isend((rank + 1) % size, 16, 0);
			compute(r);
		} else {
			var r = irecv((rank + size - 1) % size, 16, 0);
			compute(r);
		}
		waitall();
	}
}`, 2)
	loop := tree.Root.Children[0]
	arm0 := loop.Children[0]
	arm1 := loop.Children[1]
	d0 := ctts[0].Data(arm0.GID)
	d1 := ctts[0].Data(arm1.GID)
	if d0.Ctl.String() != "[<0,8,2>]" {
		t.Fatalf("arm0 taken = %s, want [<0,8,2>]", d0.Ctl.String())
	}
	if d1.Ctl.String() != "[<1,9,2>]" {
		t.Fatalf("arm1 taken = %s, want [<1,9,2>]", d1.Ctl.String())
	}
	// Waitall executed 10 times; its request lists alternate between
	// {isend} and {irecv}. Record-cycle folding collapses the alternation
	// into a 2-record block repeated 5 times.
	wa := findLeaf(tree, trace.OpWaitall)
	wd := ctts[0].Data(wa.GID)
	if len(wd.Records()) != 2 {
		t.Fatalf("waitall records = %d, want 2 (cycle-folded)", len(wd.Records()))
	}
	if len(wd.Cycles()) != 1 || wd.Cycles()[0] != (Cycle{Start: 0, Len: 2, Reps: 5}) {
		t.Fatalf("waitall cycles = %+v, want one {0,2,5}", wd.Cycles())
	}
	var total int64
	for _, r := range wd.Records() {
		total += r.Count * wd.Cycles()[0].Reps
	}
	if total != 10 {
		t.Fatalf("waitall executions = %d", total)
	}
	// Request ids must have been rewritten to the poster leaves' GIDs.
	isendGID := findLeaf(tree, trace.OpIsend).GID
	irecvGID := findLeaf(tree, trace.OpIrecv).GID
	for i, r := range wd.Records() {
		want := isendGID
		if i%2 == 1 {
			want = irecvGID
		}
		if len(r.Ev.Reqs) != 1 || r.Ev.Reqs[0] != want {
			t.Fatalf("waitall record %d reqs = %v, want [%d]", i, r.Ev.Reqs, want)
		}
		if r.Time.N != 5 {
			t.Fatalf("waitall record %d time samples = %d, want 5", i, r.Time.N)
		}
	}
}

func TestBranchSkipKeepsReachAligned(t *testing.T) {
	// The branch is taken only on iterations 3,4; skipped otherwise. The
	// taken set must reflect absolute reach indices.
	tree, ctts := run(t, `
func main() {
	for var i = 0; i < 6; i = i + 1 {
		if i >= 3 && i <= 4 {
			allreduce(8);
		}
	}
}`, 1)
	loop := tree.Root.Children[0]
	arm := loop.Children[0]
	d := ctts[0].Data(arm.GID)
	if d.Ctl.String() != "[<3,4,1>]" {
		t.Fatalf("taken = %s, want [<3,4,1>]", d.Ctl.String())
	}
}

func TestInitFinalizeOnRoot(t *testing.T) {
	tree, ctts := run(t, `func main() { barrier(); }`, 2)
	rd := ctts[0].Data(tree.Root.GID)
	if len(rd.Records()) != 2 {
		t.Fatalf("root records = %d, want 2 (init+finalize)", len(rd.Records()))
	}
	if rd.Records()[0].Ev.Op != trace.OpInit || rd.Records()[1].Ev.Op != trace.OpFinalize {
		t.Fatalf("root records = %v, %v", rd.Records()[0].Ev.Op, rd.Records()[1].Ev.Op)
	}
}

func TestPeerRelativeEncoding(t *testing.T) {
	tree, ctts := run(t, `
func main() {
	if rank < size - 1 { send(rank + 1, 64, 0); }
	if rank > 0 { recv(rank - 1, 64, 0); }
}`, 4)
	sendLeaf := findLeaf(tree, trace.OpSend)
	for rank := 0; rank < 3; rank++ {
		d := ctts[rank].Data(sendLeaf.GID)
		if len(d.Records()) != 1 {
			t.Fatalf("rank %d send records = %d", rank, len(d.Records()))
		}
		r := d.Records()[0]
		if r.PeerRel != 1 {
			t.Fatalf("rank %d PeerRel = %d, want +1", rank, r.PeerRel)
		}
		if r.Ev.Peer != rank+1 {
			t.Fatalf("rank %d absolute peer = %d", rank, r.Ev.Peer)
		}
	}
	// Rank 3 never executes the send arm.
	if len(ctts[3].Data(sendLeaf.GID).Records()) != 0 {
		t.Fatal("rank 3 must have no send records")
	}
}

func TestWildcardDelayedCompression(t *testing.T) {
	tree, ctts := run(t, `
func main() {
	if rank == 0 {
		var r1 = irecv(ANY, 8, 0);
		var r2 = irecv(ANY, 8, 0);
		compute(r1 + r2);
		waitall();
	} else {
		send(0, 8, 0);
	}
}`, 3)
	var total int64
	peers := map[int]bool{}
	tree.Walk(func(v *cst.Vertex, _ int) {
		if v.Kind != cst.KindComm || v.Op != trace.OpIrecv {
			return
		}
		for _, r := range ctts[0].Data(v.GID).Records() {
			total += r.Count
			peers[r.Ev.Peer] = true
			if !r.Ev.Wildcard {
				t.Fatal("wildcard flag must be preserved on resolved records")
			}
			if r.Ev.Peer == trace.AnySource {
				t.Fatal("wildcard source not resolved")
			}
		}
	})
	if total != 2 {
		t.Fatalf("irecv records total = %d", total)
	}
	if len(peers) != 2 || !peers[1] || !peers[2] {
		t.Fatalf("resolved peers = %v", peers)
	}
	// The waitall record must not retain per-rank resolved sources.
	wa := findLeaf(tree, trace.OpWaitall)
	for _, r := range ctts[0].Data(wa.GID).Records() {
		if r.Ev.ReqSrcs != nil {
			t.Fatal("completion record kept ReqSrcs")
		}
	}
}

func TestRecursionPseudoLoopCounts(t *testing.T) {
	tree, ctts := run(t, `
func main() {
	f(4);
	f(2);
}
func f(n) {
	if n == 0 { return; }
	bcast(0, 8);
	f(n - 1);
}`, 1)
	// Two pseudo-loop call vertices (distinct call sites): each activated
	// once, with depths 5 and 3 (levels include the n==0 base call).
	var callVs []*cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		if v.Kind == cst.KindCall && v.Recursive {
			callVs = append(callVs, v)
		}
	})
	if len(callVs) != 2 {
		t.Fatalf("recursive call vertices = %d\n%s", len(callVs), tree.Dump())
	}
	d0 := ctts[0].Data(callVs[0].GID)
	d1 := ctts[0].Data(callVs[1].GID)
	if d0.Counts().String() != "[<5>]" {
		t.Fatalf("f(4) levels = %s, want [<5>]", d0.Counts().String())
	}
	if d1.Counts().String() != "[<3>]" {
		t.Fatalf("f(2) levels = %s, want [<3>]", d1.Counts().String())
	}
	// Total bcasts recorded: 4 + 2.
	leaf := findLeaf(tree, trace.OpBcast)
	var total int64
	for _, v := range tree.ByGID {
		if v.Kind == cst.KindComm && v.Op == trace.OpBcast {
			for _, r := range ctts[0].Data(v.GID).Records() {
				total += r.Count
			}
		}
	}
	_ = leaf
	if total != 6 {
		t.Fatalf("bcast executions = %d, want 6", total)
	}
}

func TestCompressionRatioJacobi(t *testing.T) {
	// 200 iterations of Jacobi: the CTT must stay tiny while the raw trace
	// grows linearly.
	_, ctts := run(t, `
func main() {
	for var k = 0; k < 200; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
	}
}`, 8)
	c := ctts[3] // interior rank
	if c.EventCount != 2+200*4 {
		t.Fatalf("event count = %d", c.EventCount)
	}
	size := c.SizeBytes()
	rawEstimate := c.EventCount * 20 // ~20B/event raw
	if size >= rawEstimate/10 {
		t.Fatalf("CTT size %dB not ≪ raw %dB", size, rawEstimate)
	}
}

// TestMarkerWithoutSitePanics holds the compressor to the static marks: the
// interpreter emits markers only for sites the CST keeps, so a marker whose
// site has no child under the cursor names the site and the vertex in a
// panic instead of being stepped over.
func TestMarkerWithoutSitePanics(t *testing.T) {
	prog, tree := compile(t, `
func main() {
	for var i = 0; i < 2; i = i + 1 { compute(1); }
	if rank == 0 { compute(1); } else { barrier(); }
	if rank == 1 { compute(1); }
	idle();
}
func idle() { compute(1); }`)
	body := prog.ByName["main"].Body.Stmts
	loop := int32(body[0].ID())
	armed := int32(body[1].ID())
	bare := int32(body[2].ID())
	call := int32(body[3].(*lang.ExprStmt).X.ID())
	if tree.Root.Child(lang.NodeID(armed), 1) == nil {
		t.Fatalf("else arm of site %d pruned:\n%s", armed, tree.Dump())
	}
	for _, tc := range []struct {
		name   string
		marker func(c *Compressor)
		want   string
	}{
		{"loop", func(c *Compressor) { c.LoopEnter(loop) }, fmt.Sprintf("loop marker for site %d has no CST child under vertex 0", loop)},
		{"pruned arm", func(c *Compressor) { c.BranchEnter(armed, 0) }, fmt.Sprintf("branch arm 0 marker for site %d has no CST child under vertex 0", armed)},
		{"pruned if", func(c *Compressor) { c.BranchSkip(bare) }, fmt.Sprintf("branch skip marker for site %d has no CST child under vertex 0", bare)},
		{"call", func(c *Compressor) { c.CallEnter(call) }, fmt.Sprintf("call marker for site %d has no CST child under vertex 0", call)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCompressor(tree, 0, timestat.ModeMeanStddev)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want it to contain %q", msg, tc.want)
				}
			}()
			tc.marker(c)
		})
	}
}

func TestFinishBeforeFinalizePanics(t *testing.T) {
	_, tree := compile(t, `func main() { barrier(); }`)
	c := NewCompressor(tree, 0, timestat.ModeMeanStddev)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Finish()
}

func TestHistogramMode(t *testing.T) {
	prog, tree := compile(t, `
func main() {
	for var i = 0; i < 50; i = i + 1 { allreduce(8); }
}`)
	comp := NewCompressor(tree, 0, timestat.ModeHistogram)
	_, err := mpisim.Run(1, mpisim.DefaultParams(), []trace.Sink{comp}, func(r *mpisim.Rank) {
		interp.Execute(prog, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	c := comp.Finish()
	leaf := findLeaf(tree, trace.OpAllreduce)
	rec := c.Data(leaf.GID).Records()[0]
	if rec.Time.Hist == nil {
		t.Fatal("histogram mode lost the histogram")
	}
	var histN uint32
	for _, h := range rec.Time.Hist {
		histN += h
	}
	if histN != 50 {
		t.Fatalf("histogram total = %d", histN)
	}
}

func TestMemoryBytesGrowsWithRecords(t *testing.T) {
	prog, tree := compile(t, `
func main() {
	for var i = 0; i < 64; i = i + 1 { bcast(0, 100 + i); }
}`)
	comp := NewCompressor(tree, 0, timestat.ModeMeanStddev)
	before := comp.MemoryBytes()
	_, err := mpisim.Run(1, mpisim.DefaultParams(), []trace.Sink{comp}, func(r *mpisim.Rank) {
		interp.Execute(prog, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp.MemoryBytes() <= before {
		t.Fatal("memory accounting did not grow")
	}
}

func TestEarlyReturnArmRecorded(t *testing.T) {
	// The return arm is comm-free but must survive pruning (Returns flag)
	// and record its taken indices for replay alignment.
	tree, ctts := run(t, `
func main() {
	for var i = 0; i < 5; i = i + 1 { f(i); }
}
func f(n) {
	if n >= 3 { return; }
	barrier();
}`, 2)
	var retArm *cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		if v.Kind == cst.KindBranch && v.Returns {
			retArm = v
		}
	})
	if retArm == nil {
		t.Fatalf("return arm pruned:\n%s", tree.Dump())
	}
	d := ctts[0].Data(retArm.GID)
	if d.Ctl.String() != "[<3,4,1>]" {
		t.Fatalf("return arm taken = %s", d.Ctl.String())
	}
}

func BenchmarkCompressJacobiEvent(b *testing.B) {
	src := `
func main() {
	for var k = 0; k < 500; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
	}
}`
	prog, tree := compile(b, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comps := make([]trace.Sink, 4)
		for j := range comps {
			comps[j] = NewCompressor(tree, j, timestat.ModeMeanStddev)
		}
		if _, err := mpisim.Run(4, mpisim.Params{}, comps, func(r *mpisim.Rank) {
			interp.Execute(prog, r)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDeepRecursionGuard(t *testing.T) {
	prog, tree := compile(t, `
func main() { f(100000); }
func f(n) { if n > 0 { bcast(0, 8); f(n - 1); } }`)
	comp := NewCompressor(tree, 0, timestat.ModeMeanStddev)
	_, err := mpisim.Run(1, mpisim.Params{}, []trace.Sink{comp}, func(r *mpisim.Rank) {
		interp.Execute(prog, r)
	})
	if err == nil {
		t.Fatal("recursion guard did not trip")
	}
}
