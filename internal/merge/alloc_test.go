package merge

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/ctt"
	"repro/internal/obs"
	"repro/internal/rankset"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// TestDecodeAllocs pins the slab-backed decode path. Decoding a merged trace
// must carve entries, rank sets, vertex data, and comm records out of chunked
// slabs instead of allocating each object individually: the budget below is a
// small multiple of the chunk count, not of the entry count. Before the slab
// rework this fixture decoded at several hundred allocations; regressions back
// toward per-object allocation trip the bound immediately.
func TestDecodeAllocs(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 16)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var rd bytes.Reader // hoisted so the reader itself is not counted
	step := func() {
		rd.Reset(data)
		if _, err := Decode(&rd); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the bufio reader pool
	allocs := testing.AllocsPerRun(200, step)
	// The fixture has ~50 vertices and ~70 entries; the slab decoder spends
	// ~50 allocations on it (tree, slab chunks, index maps). 80 leaves head-
	// room for runtime noise while still catching any per-entry regression:
	// the pre-slab decoder spent several hundred on this fixture.
	if allocs > 80 {
		t.Errorf("Decode allocates %.1f allocs/op, want <= 80", allocs)
	}
}

// TestMergeAllSteadyStateAllocs pins the merge reduction's slab economy.
// Re-merging the same rank CTTs is steady state after the first pass (the
// first All rel-encodes leaf records in place); from then on every reduction
// must serve its leaves from chunked slabs and its right operands from the
// recycled scratch leaf. The budget scales with ranks/slabChunk, not with
// ranks x vertices: with 64 ranks and ~50 vertices a per-entry scheme would
// show thousands of allocations per op.
func TestMergeAllSteadyStateAllocs(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 64)
	step := func() {
		if _, err := All(ctts, 0); err != nil {
			t.Fatal(err)
		}
	}
	step() // first pass rel-encodes leaf records in place
	allocs := testing.AllocsPerRun(50, step)
	if allocs > 400 {
		t.Errorf("steady-state All(64 ranks) allocates %.1f allocs/op, want <= 400", allocs)
	}
}

// TestMergeAllSteadyStateAllocsObserved re-runs the merge reduction budget
// with a sink attached: per-pair tallies accumulate in plain
// mergeState fields and flush to atomics once per pair, and the per-depth
// pair timings are two time.Now calls plus an atomic histogram observe —
// none of which touch the heap, so the budget is unchanged from sink-off.
func TestMergeAllSteadyStateAllocsObserved(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 64)
	obs.Attach(obs.New(), nil)
	defer obs.Attach(nil, nil)
	step := func() {
		if _, err := All(ctts, 0); err != nil {
			t.Fatal(err)
		}
	}
	step() // first pass rel-encodes leaf records in place
	allocs := testing.AllocsPerRun(50, step)
	if allocs > 400 {
		t.Errorf("observed All(64 ranks) allocates %.1f allocs/op, want <= 400 (same as sink-off)", allocs)
	}
}

// TestPairUniformSteadyStateAllocs drives the uniform case directly: two
// one-rank trees whose every vertex merges, so the pair only walks each
// payload pair, folds its statistics and appends rank runs to the left
// operand's existing entries. The interior ranks of the jacobi stencil are
// structurally identical, so pairs drawn from them merge at every vertex.
func TestPairUniformSteadyStateAllocs(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 16)
	// Warm pass rel-encodes the leaves, the steady state above level 0.
	if _, err := All(ctts, 0); err != nil {
		t.Fatal(err)
	}
	// Interior ranks 3..12: identical control flow and relative peers.
	x := &leafCtx{ctts: ctts, keyOn: true}
	step := func() {
		left := x.durableLeaf(5)
		right := x.scratchLeaf(6)
		m, err := x.pair(left, right)
		if err != nil {
			t.Fatal(err)
		}
		if m.GroupCount() != executedCount(ctts[5]) {
			t.Fatalf("%d groups after the pair, want %d: interior ranks should merge at every vertex",
				m.GroupCount(), executedCount(ctts[5]))
		}
	}
	step()
	allocs := testing.AllocsPerRun(200, step)
	// Steady state: the durable left leaf comes out of the chunked slabs
	// (amortized ~3 allocs/op at chunk 64), the scratch right leaf is
	// recycled, and the pair itself allocates nothing.
	if allocs > 8 {
		t.Errorf("uniform pair allocates %.1f allocs/op, want <= 8", allocs)
	}
}

// TestEntrySize pins Entry at three words on 64-bit platforms: rank set,
// payload, and the ownership bit. Every decode
// allocates every entry of the tree, so its size shows in alloc_mb_per_op;
// per-payload memos (the invariant key) belong on ctt.VData instead.
func TestEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Entry{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Entry{}) = %d, want 24", got)
	}
}

// TestPairFragmentedSteadyStateAllocs pins where the key index lives. A
// vertex with 64 groups on the left and 8 new ones on the right — no two
// alike, the SP shape — sends every right entry through the index and
// appends it. The index (one map, one chain slice) belongs to the lane's
// leafCtx and is cleared, not reallocated, per vertex, so once it has grown
// to the list's size a Pair costs no allocation of its own: the left list
// here has room for the appended entries, which leaves nothing else to
// allocate.
func TestPairFragmentedSteadyStateAllocs(t *testing.T) {
	const nl, nr = 64, 8
	entries := func(n, rank0, size0 int) []Entry {
		es := make([]Entry, n)
		for i := range es {
			d := &ctt.VData{Records: []*ctt.CommRecord{{
				Ev:      trace.Event{Op: trace.OpSend, Size: size0 + i, Peer: rank0 + i + 1},
				PeerRel: 1, Count: 10,
				Time: timestat.Make(timestat.ModeMeanStddev), Compute: timestat.Make(timestat.ModeMeanStddev),
			}}}
			es[i] = Entry{Ranks: rankset.Single(rank0 + i), Data: d, owns: true}
		}
		return es
	}
	left := append(make([]Entry, 0, nl+nr), entries(nl, 0, 1000)...)
	a := &Merged{Entries: [][]Entry{nil}}
	b := &Merged{Entries: [][]Entry{entries(nr, nl, 2000)}, NumRanks: nr}
	x := &leafCtx{keyOn: true}
	step := func() {
		a.Entries[0], a.NumRanks = left, nl
		m, err := x.pair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Entries[0]) != nl+nr {
			t.Fatalf("%d groups after the pair, want %d: the fixture folded", len(m.Entries[0]), nl+nr)
		}
	}
	step()
	if len(x.probe.next) != nl+nr {
		t.Fatalf("index holds %d entries, want %d: the pair did not go through it", len(x.probe.next), nl+nr)
	}
	if allocs := testing.AllocsPerRun(200, step); allocs > 0 {
		t.Errorf("steady-state fragmented pair allocates %.1f allocs/op, want 0", allocs)
	}
}
