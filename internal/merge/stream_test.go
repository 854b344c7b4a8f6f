package merge

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/replay"
	"repro/internal/simmpi"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// ringSrcStream is the wraparound-ring shape behind the large-rank streaming
// tests: every rank sends to (rank+1)%size and receives from (rank-1+size)%size,
// so the trace both simulates under simmpi (sends complete locally; every recv
// has a matching send) and splits into three rank groups (interior, rank 0,
// rank size-1 — the wraparound edges break the relative encoding) of one
// replay shape.
const ringSrcStream = `
func main() {
	for var i = 0; i < 16; i = i + 1 {
		send((rank + 1) % size, 4096, 7);
		recv((rank + size - 1) % size, 4096, 7);
	}
	allreduce(8);
}`

// ringCTTs builds n per-rank CTTs by driving each compressor directly with a
// synthetic wraparound-ring event stream — no simulator, so streaming tests
// scale to 1024 ranks in milliseconds. Unlike directDriveCTTs it keeps
// iteration counts uniform so the trace is simulatable.
func ringCTTs(t testing.TB, n, iters int) []*ctt.RankCTT {
	t.Helper()
	prog, err := lang.Parse(ringSrcStream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	tree := buildTree(t, prog)
	var loop, sendLeaf, recvLeaf, redLeaf *cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		switch {
		case loop == nil && v.Kind == cst.KindLoop:
			loop = v
		case sendLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpSend:
			sendLeaf = v
		case recvLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpRecv:
			recvLeaf = v
		case redLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpAllreduce:
			redLeaf = v
		}
	})
	if loop == nil || sendLeaf == nil || recvLeaf == nil || redLeaf == nil {
		t.Fatal("ring tree missing vertices")
	}
	out := make([]*ctt.RankCTT, n)
	var ev trace.Event
	for r := 0; r < n; r++ {
		c := ctt.NewCompressor(tree, r, timestat.ModeMeanStddev)
		ev = trace.Event{Op: trace.OpInit, Peer: trace.NoPeer, ReqID: -1, DurationNS: 120, ComputeNS: 10}
		c.Event(&ev)
		c.LoopEnter(int32(loop.Site))
		for k := 0; k < iters; k++ {
			c.LoopIter(int32(loop.Site))
			c.CommSite(int32(sendLeaf.Site))
			ev = trace.Event{Op: trace.OpSend, Peer: (r + 1) % n, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1500, ComputeNS: 40}
			c.Event(&ev)
			c.CommSite(int32(recvLeaf.Site))
			ev = trace.Event{Op: trace.OpRecv, Peer: (r + n - 1) % n, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1600, ComputeNS: 55}
			c.Event(&ev)
		}
		c.StructExit()
		c.CommSite(int32(redLeaf.Site))
		ev = trace.Event{Op: trace.OpAllreduce, Peer: trace.NoPeer, Size: 8, ReqID: -1, DurationNS: 2200, ComputeNS: 70}
		c.Event(&ev)
		ev = trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer, ReqID: -1, DurationNS: 90}
		c.Event(&ev)
		c.Finalize()
		out[r] = c.Finish()
	}
	return out
}

func buildTree(t testing.TB, prog *lang.Program) *cst.Tree {
	t.Helper()
	tree, err := cst.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// rankViewSeq is the reference decompression: the O(groups)-per-accessor
// rankView path the Streamer replaces.
func rankViewSeq(t testing.TB, m *Merged, rank int) []trace.Event {
	t.Helper()
	seq, err := replay.Sequence(m.ForRank(rank), rank)
	if err != nil {
		t.Fatalf("rankView replay rank %d: %v", rank, err)
	}
	return seq
}

// npbMerged traces an npb workload on n ranks at npb.Small and merges it.
func npbMerged(t testing.TB, name string, n int) *Merged {
	t.Helper()
	_, ctts, _ := collect(t, npb.Get(name).Source(n, npb.Small), n)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// streamerSeqs materializes every rank's sequence three ways through s —
// callback Replay, pull Cursor — and checks them against each other before
// returning the Replay result.
func streamerSeqs(t testing.TB, s *Streamer, rank int) []trace.Event {
	t.Helper()
	var cb []trace.Event
	if err := s.Replay(rank, func(e *trace.Event) { cb = append(cb, *e) }); err != nil {
		t.Fatalf("streamer replay rank %d: %v", rank, err)
	}
	cur, err := s.Cursor(rank)
	if err != nil {
		t.Fatalf("streamer cursor rank %d: %v", rank, err)
	}
	var pulled []trace.Event
	for {
		e, ok := cur.Next()
		if !ok {
			break
		}
		pulled = append(pulled, *e)
	}
	if !reflect.DeepEqual(cb, pulled) {
		t.Fatalf("rank %d: cursor sequence differs from callback sequence", rank)
	}
	return cb
}

// TestStreamerMatchesRankView pins the sequence-preservation guarantee: for
// every rank of every fixture, the Streamer's replay (both the skeleton-build
// walk of the first rank of a class and the skeleton scans of its followers,
// and the pull-cursor path) is event-identical to the reference rankView walk.
func TestStreamerMatchesRankView(t *testing.T) {
	fixtures := []struct {
		name string
		m    *Merged
	}{}
	for _, n := range []int{7, 64} {
		_, ctts, _ := collect(t, jacobiSrc, n)
		m, err := All(ctts, 0)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, struct {
			name string
			m    *Merged
		}{name: "jacobi", m: m})
	}
	{
		// Divergent iteration counts: multiple replay classes with
		// interleaved rank sets.
		src := `
func main() {
	var pair = rank / 2;
	var k = 5;
	if pair % 2 == 1 { k = 9; }
	if rank % 2 == 0 {
		for var i = 0; i < k; i = i + 1 { send(rank + 1, 64, 0); }
	} else {
		for var i = 0; i < k; i = i + 1 { recv(rank - 1, 64, 0); }
	}
}`
		_, ctts, _ := collect(t, src, 8)
		m, err := All(ctts, 0)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, struct {
			name string
			m    *Merged
		}{name: "divergent", m: m})
	}
	for _, fx := range fixtures {
		s := NewStreamer(fx.m)
		for rank := 0; rank < fx.m.NumRanks; rank++ {
			want := rankViewSeq(t, fx.m, rank)
			got := streamerSeqs(t, s, rank)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: rank %d/%d: streamer sequence differs from rankView",
					fx.name, rank, fx.m.NumRanks)
			}
		}
		if cc := s.ClassCount(); cc < 1 || cc >= fx.m.NumRanks {
			t.Errorf("%s: ClassCount %d outside (0,%d): skeleton sharing broken",
				fx.name, cc, fx.m.NumRanks)
		}
	}
}

// TestStreamerRing1024 is the at-scale identity check: 1024 synthetic ring
// ranks must replay byte-identically through the Streamer and collapse to one
// replay class — the two wraparound edges are rank groups of their own, but
// they differ from the interior in peer only, which no walk reads — and the
// streaming simulation over pull cursors must produce exactly the result of
// the materializing simulation.
func TestStreamerRing1024(t *testing.T) {
	const n = 1024
	ctts := ringCTTs(t, n, 16)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStreamer(m)
	if err := s.Prepare(0); err != nil {
		t.Fatal(err)
	}
	if cc := s.ClassCount(); cc != 1 {
		t.Errorf("ring ClassCount = %d, want 1 (the wraparound edges differ in peer only)", cc)
	}
	// Spot-check full sequences at the class boundaries and a few interiors.
	for _, rank := range []int{0, 1, 2, 511, 1022, 1023} {
		want := rankViewSeq(t, m, rank)
		got := streamerSeqs(t, s, rank)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("rank %d: streamer sequence differs from rankView", rank)
		}
	}
	// Streaming simulation == materializing simulation, exactly.
	params := mpisim.DefaultParams()
	seqs := make([][]trace.Event, n)
	srcs := make([]simmpi.EventSource, n)
	for rank := 0; rank < n; rank++ {
		seqs[rank] = rankViewSeq(t, m, rank)
		cur, err := s.Cursor(rank)
		if err != nil {
			t.Fatal(err)
		}
		srcs[rank] = cur
	}
	want, err := simmpi.Simulate(seqs, params)
	if err != nil {
		t.Fatal(err)
	}
	got, err := simmpi.SimulateStreamPar(srcs, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("streaming simulation differs from materializing simulation:\n got %+v\nwant %+v", got, want)
	}
}

// TestStreamerReplayAll pins the parallel fan-out: per-rank event order under
// concurrent replay equals the serial order, for worker counts around the
// rank count.
func TestStreamerReplayAll(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 12)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStreamer(m)
	want := make([][]trace.Event, m.NumRanks)
	for rank := range want {
		want[rank] = rankViewSeq(t, m, rank)
	}
	for _, workers := range []int{1, 3, 12, 64, 0} {
		got := make([][]trace.Event, m.NumRanks)
		err := s.ReplayAll(workers, func(rank int, e *trace.Event) {
			got[rank] = append(got[rank], *e)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: parallel replay differs from serial", workers)
		}
	}
}

// TestStreamerRankOutOfRange pins the error path.
func TestStreamerRankOutOfRange(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 4)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStreamer(m)
	if err := s.Replay(4, func(*trace.Event) {}); err == nil {
		t.Error("Replay(4) on 4 ranks: want error, got nil")
	}
	if _, err := s.Cursor(-1); err == nil {
		t.Error("Cursor(-1): want error, got nil")
	}
}

// TestStreamerSteadyStateAllocs pins the streaming replay's steady state:
// once every replay class's skeleton is memoized, replaying a rank must
// not allocate at all — the walk is a flat scan over shared steps with one
// stack-reused event buffer — and opening a cursor costs exactly the cursor.
func TestStreamerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	_, ctts, _ := collect(t, jacobiSrc, 16)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStreamer(m)
	if err := s.Prepare(1); err != nil {
		t.Fatal(err)
	}
	sink := func(e *trace.Event) {}
	allocs := testing.AllocsPerRun(100, func() {
		for rank := 0; rank < m.NumRanks; rank++ {
			if err := s.Replay(rank, sink); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Replay over 16 ranks allocates %.1f allocs/op, want 0", allocs)
	}
	cursorAllocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Cursor(3); err != nil {
			t.Fatal(err)
		}
	})
	if cursorAllocs > 1 {
		t.Errorf("steady-state Cursor allocates %.1f allocs/op, want <= 1", cursorAllocs)
	}
}

// scanRow is the reference for tableRow: the first entry whose rank set
// contains the rank, by the Contains scan rankView and single-rank resolves
// use.
func scanRow(es []Entry, n int) []int32 {
	row := make([]int32, n)
	for rank := range row {
		row[rank] = -1
		for i := range es {
			if es[i].Ranks.Contains(rank) {
				row[rank] = int32(i)
				break
			}
		}
	}
	return row
}

// TestRankTableHostileRankSets holds the rank table to the scan on rank sets
// no merge produces but the decoder lets through (hostileRankSetSeeds): a row
// is either cell-for-cell what the scan answers or declined, and it is
// declined exactly for the two seeds whose run arithmetic wraps. Returning at
// all is the check on the 2^62-member run.
func TestRankTableHostileRankSets(t *testing.T) {
	declined := 0
	for k, enc := range hostileRankSetSeeds(t) {
		m, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("seed %d does not decode, so it tests nothing: %v", k, err)
		}
		if !replayBounded(m) {
			t.Fatalf("seed %d is outside the fuzz target's replay budget", k)
		}
		for gid, es := range m.Entries {
			if len(es) < 2 {
				continue
			}
			row := tableRow(es, m.NumRanks)
			if row == nil {
				declined++
				continue
			}
			if want := scanRow(es, m.NumRanks); !reflect.DeepEqual(row, want) {
				t.Errorf("seed %d vertex %d: table row %v, scan %v", k, gid, row, want)
			}
		}
	}
	if declined != 2 {
		t.Errorf("%d rows declined, want 2 (the overflowing run and the negative one)", declined)
	}
}

// TestStreamerReplayAllFragmented replays SP — every comm leaf split into
// one group per rank or nearly, by message size alone, so many groups and few
// replay classes — through ReplayAll at 1 and 4 workers on a fresh Streamer
// each, against the rankView walk. A fresh Streamer per worker count makes each run build the rank
// table, and single-rank Replays racing the 4-worker run read the table
// pointer while it is being published: the one-time build is what the race
// job is here to watch.
func TestStreamerReplayAllFragmented(t *testing.T) {
	const n = 64
	m := npbMerged(t, "SP", n)
	want := make([][]trace.Event, n)
	for rank := range want {
		want[rank] = rankViewSeq(t, m, rank)
	}
	for _, workers := range []int{1, 4} {
		s := NewStreamer(m)
		if err := s.Replay(n/2, func(*trace.Event) {}); err != nil {
			t.Fatal(err)
		}
		if s.table.Load() != nil {
			t.Fatal("a single-rank Replay built the rank table")
		}
		var side sync.WaitGroup
		side.Add(1)
		go func() {
			defer side.Done()
			for rank := 0; rank < n; rank += 7 {
				var got []trace.Event
				if err := s.Replay(rank, func(e *trace.Event) { got = append(got, *e) }); err != nil {
					t.Errorf("workers=%d: concurrent Replay(%d): %v", workers, rank, err)
				} else if !reflect.DeepEqual(want[rank], got) {
					t.Errorf("workers=%d: concurrent Replay(%d) differs from rankView", workers, rank)
				}
			}
		}()
		got := make([][]trace.Event, n)
		err := s.ReplayAll(workers, func(rank int, e *trace.Event) {
			got[rank] = append(got[rank], *e)
		})
		side.Wait()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: ReplayAll differs from rankView", workers)
		}
		rows := 0
		for gid, row := range *s.table.Load() {
			if (row != nil) != (len(m.Entries[gid]) >= 2) {
				t.Errorf("workers=%d: vertex %d has %d groups, table row present = %v",
					workers, gid, len(m.Entries[gid]), row != nil)
			}
			if row != nil {
				rows++
			}
		}
		if rows == 0 || m.GroupCount() < n/2*rows {
			t.Fatalf("workers=%d: %d table rows, %d groups: SP-%d no longer fragments", workers, rows, m.GroupCount(), n)
		}
		// 9 shapes, and at most one more for each of the 11 single-rank
		// Replays that memoized a raw vector before the canonical rows existed.
		if cc := s.ClassCount(); cc >= n/2 {
			t.Errorf("workers=%d: %d replay classes on SP-%d, want at most 20: groups split by size alone share a shape", workers, cc, n)
		}
	}
}

// TestStreamerTableAllocs is TestStreamerSteadyStateAllocs on a tree that
// has a rank table: once Prepare has built it, resolving a rank through it
// and replaying a rank allocate nothing.
func TestStreamerTableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	const n = 16
	m := npbMerged(t, "SP", n)
	s := NewStreamer(m)
	if err := s.Prepare(1); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, row := range *s.table.Load() {
		if row != nil {
			rows++
		}
	}
	if rows == 0 {
		t.Fatal("SP-16 built no table rows")
	}
	sc := s.scratch.Get().(*resolveScratch)
	defer s.scratch.Put(sc)
	emit := func(e *trace.Event) {}
	allocs := testing.AllocsPerRun(100, func() {
		for rank := 0; rank < n; rank++ {
			s.resolve(rank, sc)
			if err := s.Replay(rank, emit); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("table resolve + Replay over %d ranks allocates %.1f allocs/op, want 0", n, allocs)
	}
}

// TestStreamerShapeClassAllocs is the steady state of a job whose ranks share
// skeletons without sharing entries: on SP-16 after Prepare every rank has
// its class and its bound table, and a full ReplayAll allocates nothing.
func TestStreamerShapeClassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	const n = 16
	m := npbMerged(t, "SP", n)
	s := NewStreamer(m)
	if err := s.Prepare(1); err != nil {
		t.Fatal(err)
	}
	if cc := s.ClassCount(); cc >= n {
		t.Fatalf("SP-%d: %d classes, no rank shares a skeleton", n, cc)
	}
	events := 0
	fn := func(int, *trace.Event) { events++ }
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.ReplayAll(1, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("ReplayAll(1) over %d prepared ranks allocates %.1f allocs/op, want 0", n, allocs)
	}
}

// TestStreamerOrderIndependence is the mixed-vector case of the soundness
// argument in stream.go: a rank replayed on its own before the first all-rank
// call memoizes a raw selection vector, every rank after it a canonical one,
// and both kinds then meet in one class table. Single ranks first and
// ReplayAll after, and the reverse, on SP (groups split by size) and CG
// (split by peer) at 1 and 4 workers: every rank, through every entry point,
// must replay what the rankView walk replays.
func TestStreamerOrderIndependence(t *testing.T) {
	const n = 64
	for name, shapes := range map[string]int{"SP": 9, "CG": 1} {
		m := npbMerged(t, name, n)
		want := make([][]trace.Event, n)
		for rank := range want {
			want[rank] = rankViewSeq(t, m, rank)
		}
		singles := func(s *Streamer) {
			for _, rank := range []int{n / 2, 0, n - 1, 7} {
				if got := streamerSeqs(t, s, rank); !reflect.DeepEqual(want[rank], got) {
					t.Fatalf("%s: single-rank replay of rank %d differs from rankView", name, rank)
				}
			}
		}
		all := func(s *Streamer, workers int) {
			got := make([][]trace.Event, n)
			if err := s.ReplayAll(workers, func(rank int, e *trace.Event) {
				got[rank] = append(got[rank], *e)
			}); err != nil {
				t.Fatalf("%s: workers=%d: %v", name, workers, err)
			}
			for rank := range got {
				if !reflect.DeepEqual(want[rank], got[rank]) {
					t.Fatalf("%s: workers=%d: ReplayAll rank %d differs from rankView", name, workers, rank)
				}
			}
		}
		for _, workers := range []int{1, 4} {
			s := NewStreamer(m)
			singles(s)
			all(s, workers)
			singles(s)

			s = NewStreamer(m)
			all(s, workers)
			singles(s)
			all(s, workers)
			if cc := s.ClassCount(); cc != shapes {
				t.Errorf("%s-%d: %d replay classes when the all-rank replay came first, want %d", name, n, cc, shapes)
			}
		}
	}
}

// replayClasses traces an npb workload on n ranks and returns the class count
// after one all-rank replay.
func replayClasses(t *testing.T, name string, n int) int {
	t.Helper()
	m := npbMerged(t, name, n)
	s := NewStreamer(m)
	if err := s.ReplayAll(1, func(int, *trace.Event) {}); err != nil {
		t.Fatal(err)
	}
	return s.ClassCount()
}

// TestReplayClassesFollowShapes is the scaling claim as exact counts: SP's
// rank groups differ in message size and CG's in peer, neither of which the
// walk reads, so their class counts are the number of distinct control flows
// — the same at 64, 256 and 1024 ranks — while the workloads that split by
// control flow keep the counts they had when a class was a set of entries.
func TestReplayClassesFollowShapes(t *testing.T) {
	for _, name := range []string{"SP", "CG"} {
		at64 := replayClasses(t, name, 64)
		for _, n := range []int{256, 1024} {
			if cc := replayClasses(t, name, n); cc != at64 {
				t.Errorf("%s-%d: %d replay classes, %s-64 has %d: the count follows P", name, n, cc, name, at64)
			}
		}
		t.Logf("%s: %d replay classes at 64, 256 and 1024 ranks", name, at64)
	}
	for _, tc := range []struct {
		name    string
		n, want int
	}{{"LU", 128, 9}, {"MG", 512, 18}, {"BT", 64, 9}} {
		if cc := replayClasses(t, tc.name, tc.n); cc != tc.want {
			t.Errorf("%s-%d: %d replay classes, want %d", tc.name, tc.n, cc, tc.want)
		}
	}
}
