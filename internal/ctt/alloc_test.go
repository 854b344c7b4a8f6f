package ctt

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cst"
	"repro/internal/interp"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// TestEventSteadyStateAllocs pins the allocation-free hot path: once a comm
// leaf's record exists, every further matching event must fold into it
// without touching the heap. The budget is 1 alloc/op to absorb runtime
// noise (GC assists, map growth in unrelated goroutines); the path itself is
// designed for 0 and typically measures 0.
//
// The compressor is driven directly (no simulator) so AllocsPerRun sees only
// Event-path allocations: one loop iteration marker, one comm-site marker,
// one point-to-point event with constant parameters per step.
func TestEventSteadyStateAllocs(t *testing.T) {
	_, tree := compile(t, `
func main() {
	for var i = 0; i < 10; i = i + 1 {
		send(1, 2048, 5);
	}
}`)
	loop := tree.Root.Children[0]
	leaf := findLeaf(tree, trace.OpSend)
	if leaf == nil {
		t.Fatal("no send leaf")
	}
	c := NewCompressor(tree, 0, timestat.ModeMeanStddev)
	c.LoopEnter(int32(loop.Site))

	tmpl := trace.Event{
		Op: trace.OpSend, Peer: 1, Size: 2048, Tag: 5, Comm: 0,
		ReqID: -1, DurationNS: 1500, ComputeNS: 100,
	}
	var evBuf trace.Event // hoisted: a loop-local copy would escape and be counted
	step := func() {
		c.LoopIter(int32(loop.Site))
		c.CommSite(int32(leaf.Site))
		evBuf = tmpl
		c.Event(&evBuf)
	}

	// Warm up: first event creates the record, early iterations settle the
	// stride runs and any one-time growth.
	for i := 0; i < 64; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(500, step)
	if allocs > 1 {
		t.Errorf("steady-state Event path allocates %.1f allocs/op, want <= 1", allocs)
	}
}

// TestEventSteadyStateAllocsObserved re-runs the steady-state Event budget
// with a live metrics sink attached. The observability layer is plain atomic
// counters behind one nil check, so enabling it must not add a single
// allocation to the hot path — the budget is identical to the sink-off test.
func TestEventSteadyStateAllocsObserved(t *testing.T) {
	_, tree := compile(t, `
func main() {
	for var i = 0; i < 10; i = i + 1 {
		send(1, 2048, 5);
	}
}`)
	loop := tree.Root.Children[0]
	leaf := findLeaf(tree, trace.OpSend)
	if leaf == nil {
		t.Fatal("no send leaf")
	}
	obs.Attach(obs.New(), nil)
	defer obs.Attach(nil, nil)
	c := NewCompressor(tree, 0, timestat.ModeMeanStddev)
	c.LoopEnter(int32(loop.Site))

	tmpl := trace.Event{
		Op: trace.OpSend, Peer: 1, Size: 2048, Tag: 5, Comm: 0,
		ReqID: -1, DurationNS: 1500, ComputeNS: 100,
	}
	var evBuf trace.Event
	step := func() {
		c.LoopIter(int32(loop.Site))
		c.CommSite(int32(leaf.Site))
		evBuf = tmpl
		c.Event(&evBuf)
	}
	for i := 0; i < 64; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(500, step)
	if allocs > 1 {
		t.Errorf("observed Event path allocates %.1f allocs/op, want <= 1 (same as sink-off)", allocs)
	}
}

// TestWildcardSteadyStateAllocs covers the other per-event storage path: the
// wildcard-receive cache. Cached events land in recycled slots, so a
// post-warm-up irecv(ANY)+wait cycle must also stay allocation-free.
func TestWildcardSteadyStateAllocs(t *testing.T) {
	_, tree := compile(t, `
func main() {
	for var i = 0; i < 10; i = i + 1 {
		var r = irecv(ANY, 512, 3);
		wait(r);
	}
}`)
	loop := tree.Root.Children[0]
	irecvLeaf := findLeaf(tree, trace.OpIrecv)
	waitLeaf := findLeaf(tree, trace.OpWait)
	if irecvLeaf == nil || waitLeaf == nil {
		t.Fatal("missing leaves")
	}
	c := NewCompressor(tree, 0, timestat.ModeMeanStddev)
	c.LoopEnter(int32(loop.Site))

	nextReq := int32(0)
	var evBuf trace.Event
	reqBuf := make([]int32, 1)
	srcBuf := make([]int32, 1)
	step := func() {
		id := nextReq
		nextReq++
		c.LoopIter(int32(loop.Site))
		c.CommSite(int32(irecvLeaf.Site))
		evBuf = trace.Event{
			Op: trace.OpIrecv, Peer: 2, Size: 512, Tag: 3, Wildcard: true,
			ReqID: id, DurationNS: 10,
		}
		c.Event(&evBuf)
		c.CommSite(int32(waitLeaf.Site))
		reqBuf[0] = id
		srcBuf[0] = 2
		evBuf = trace.Event{
			Op: trace.OpWait, Peer: trace.NoPeer, ReqID: -1,
			Reqs: reqBuf, ReqSrcs: srcBuf, DurationNS: 20,
		}
		c.Event(&evBuf)
	}
	for i := 0; i < 64; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(500, step)
	if allocs > 1 {
		t.Errorf("steady-state wildcard irecv+wait allocates %.1f allocs/op, want <= 1", allocs)
	}
}

// TestStructureMarkersNoAllocs pins the marker paths the way the tests above
// pin Event: descent is a scan of the cursor's children and a branch site's
// reach counter is its first arm's slot of the compressor's counter table, so
// neither a steady stream of markers nor the first visit to a branch site
// touches the heap.
func TestStructureMarkersNoAllocs(t *testing.T) {
	t.Run("steady", func(t *testing.T) {
		_, tree := compile(t, `
func main() {
	for var i = 0; i < 4; i = i + 1 {
		if i % 2 == 0 { barrier(); } else { compute(1); }
		if i % 2 == 0 { compute(1); } else { allreduce(8); }
		if i == 9 { bcast(0, 8); }
		halo();
	}
}
func halo() { for var k = 0; k < 2; k = k + 1 { barrier(); } }`)
		loop := tree.Root.Children[0]
		kids := loop.Children
		if len(kids) != 4 || kids[0].Arm != 0 || kids[1].Arm != 1 || kids[3].Kind != cst.KindCall {
			t.Fatalf("unexpected tree:\n%s", tree.Dump())
		}
		thenOnly, elseOnly, skipped, call := int32(kids[0].Site), int32(kids[1].Site), int32(kids[2].Site), int32(kids[3].Site)
		inner := int32(kids[3].Children[0].Site)
		c := NewCompressor(tree, 0, timestat.ModeMeanStddev)
		c.LoopEnter(int32(loop.Site))
		// One even and one odd iteration of the outer loop: each if takes its
		// kept arm once and arrives as a skip once (its pruned arm), the
		// third is never taken.
		step := func() {
			for arm := int8(0); arm < 2; arm++ {
				c.LoopIter(int32(loop.Site))
				kept, pruned := thenOnly, elseOnly
				if arm == 1 {
					kept, pruned = elseOnly, thenOnly
				}
				c.BranchEnter(kept, arm)
				c.StructExit()
				c.BranchSkip(pruned)
				c.BranchSkip(skipped)
				c.CallEnter(call)
				c.LoopEnter(inner)
				c.LoopIter(inner)
				c.LoopIter(inner)
				c.StructExit()
				c.StructExit()
			}
		}
		for i := 0; i < 64; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
			t.Errorf("steady-state structure markers allocate %.1f allocs/op, want 0", allocs)
		}
	})

	// Eight loops, each holding an if that is reached for the first time
	// inside the measured calls.
	t.Run("first-reach", func(t *testing.T) {
		_, tree := compile(t, "func main() {\n"+strings.Repeat(
			"\tfor var i = 0; i < 2; i = i + 1 { if rank < 0 { barrier(); } }\n", 8)+"}")
		c := NewCompressor(tree, 0, timestat.ModeMeanStddev)
		c.stack = make([]frame, 0, 4)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		for _, loop := range tree.Root.Children {
			c.LoopEnter(int32(loop.Site))
			site := int32(loop.Children[0].Site)
			runtime.ReadMemStats(&before)
			c.BranchSkip(site)
			c.BranchSkip(site)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("first BranchSkip under loop %d allocates %d objects, want 0", loop.GID, n)
			}
			c.StructExit()
		}
	})
}

// TestFinishAllocs pins what Finish costs a rank beyond the work its own
// records ask for: the RankCTT it returns, and nothing per vertex. Every rank
// of a job shares one tree, and Finish stamps the tree's hash on each rank's
// result; when that hash was recomputed per rank it formatted every vertex
// through fmt into the hash, two allocations a vertex and 9 % of a 512-rank MG
// capture.
func TestFinishAllocs(t *testing.T) {
	var src strings.Builder
	src.WriteString("func main() {\n")
	for i := 0; i < 200; i++ {
		src.WriteString("\tfor var i = 0; i < 2; i = i + 1 { bcast(0, 8); }\n")
	}
	src.WriteString("}\n")
	_, tree := compile(t, src.String())
	if tree.NumVertices() < 400 {
		t.Fatalf("fixture tree has %d vertices, want >= 400", tree.NumVertices())
	}
	const ranks = 64
	comps := make([]*Compressor, ranks)
	for r := range comps {
		comps[r] = NewCompressor(tree, r, timestat.ModeMeanStddev)
		comps[r].Finalize()
	}
	want := comps[0].Finish().TreeHash // the tree's one walk
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range comps[1:] {
		if got := c.Finish().TreeHash; got != want {
			t.Fatalf("rank %d: tree hash %x, rank 0 has %x", c.rank, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	const budget = 4
	if got := float64(after.Mallocs-before.Mallocs) / (ranks - 1); got > budget {
		t.Fatalf("Finish allocates %.1f objects a rank on a %d-vertex tree, budget %d", got, tree.NumVertices(), budget)
	}
}

// TestCycleFoldRecordAllocs pins the record arena's reuse. A cycle fold drops
// the duplicate block and the newest record; the arena takes them back and
// later records, on any leaf, reuse them. So the slots a rank's arena hands
// out exceed the records its trace keeps by at most one fold's worth,
// maxCycleLen+1. Each of the twelve phases below creates five records on
// the bcast leaf, folds three of them away and closes its cycle when the
// next phase starts, while the sibling allreduce leaf appends one record a
// phase; without reuse the arena would hand out 74 slots for 38 records.
func TestCycleFoldRecordAllocs(t *testing.T) {
	prog, tree := compile(t, `
func main() {
	for var p = 0; p < 12; p = p + 1 {
		for var it = 0; it < 3; it = it + 1 {
			for var l = 0; l < 2; l = l + 1 { bcast(0, 100 * p + l); }
		}
		allreduce(8 + p);
	}
}`)
	for _, sink := range []*obs.Sink{nil, obs.New()} {
		obs.Attach(sink, nil)
		c := NewCompressor(tree, 0, timestat.ModeMeanStddev)
		if _, err := mpisim.Run(1, mpisim.DefaultParams(), []trace.Sink{c}, func(r *mpisim.Rank) {
			interp.Execute(prog, r)
		}); err != nil {
			t.Fatal(err)
		}
		obs.Attach(nil, nil)
		rt := c.Finish()
		kept, cycles := 0, 0
		for i := range rt.Leaves {
			kept += len(rt.Leaves[i].Records)
			cycles += len(rt.Leaves[i].Cycles)
		}
		if cycles != 12 {
			t.Fatalf("sink attached %v: %d cycles, want one a phase (12)", sink != nil, cycles)
		}
		carved := (c.recs.chunks-1)*recordChunk + len(c.recs.chunk)
		if carved > kept+maxCycleLen+1 {
			t.Errorf("sink attached %v: arena handed out %d record slots for %d kept records, budget %d",
				sink != nil, carved, kept, kept+maxCycleLen+1)
		}
	}
}

// TestCompressorStateBytes pins what a rank pays before its first event.
// NewCompressor sizes one table per payload kind (cst.Payload): a comm leaf
// or the root costs a Leaf and its cycle state, a loop, recursive call or
// branch arm one stride vector and one counter, and a non-recursive call or
// RecCall nothing. On the nine npb skeletons at 64 ranks the bytes it
// allocates a rank stay within a budget derived from the CST's kind counts,
// each allocation allowed a quarter more for its size class. A per-vertex
// layout, every vertex carrying every kind's fields (272 bytes a vertex),
// exceeds the budget on every skeleton.
func TestCompressorStateBytes(t *testing.T) {
	const ranks = 64
	alloc := func(n uintptr) uint64 { return uint64(n + n/4 + 16) }
	for _, w := range npb.All() {
		_, tree := compile(t, w.Source(ranks, npb.Small))
		var leaves, ctl uintptr
		tree.Walk(func(v *cst.Vertex, _ int) {
			switch {
			case v.Kind == cst.KindRoot, v.Kind == cst.KindComm:
				leaves++
			case v.Kind == cst.KindLoop, v.Kind == cst.KindBranch, v.Kind == cst.KindCall && v.Recursive:
				ctl++
			}
		})
		budget := alloc(unsafe.Sizeof(Compressor{})) +
			alloc(leaves*unsafe.Sizeof(Leaf{})) + alloc(leaves*unsafe.Sizeof(cycleState{})) +
			alloc(ctl*unsafe.Sizeof(Ctl{})) + alloc(ctl*8)
		comps := make([]*Compressor, ranks)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := range comps {
			comps[r] = NewCompressor(tree, r, timestat.ModeMeanStddev)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(comps)
		perRank := (after.TotalAlloc - before.TotalAlloc) / ranks
		t.Logf("%s-%d: %d vertices (%d leaves, %d control): %d B a rank, budget %d",
			w.Name, ranks, tree.NumVertices(), leaves, ctl, perRank, budget)
		if perRank > budget {
			t.Errorf("%s-%d: NewCompressor allocates %d B a rank, budget %d for %d leaves and %d control vertices",
				w.Name, ranks, perRank, budget, leaves, ctl)
		}
	}
}
