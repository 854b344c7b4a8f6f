package merge

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/lang"
	"repro/internal/npb"
	"repro/internal/replay"
	"repro/internal/timestat"
	"repro/internal/trace"
)

func encodeBytes(t testing.TB, m *Merged) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanSource produces one case's per-rank trees and the raw traces they
// were compressed from.
type scanSource func(t *testing.T) ([]*ctt.RankCTT, [][]trace.Event)

// scanCase is one row of the merge-versus-scan table.
type scanCase struct {
	name  string
	src   scanSource
	check func(t *testing.T, m *Merged) // optional: the grouping the case must show
}

func simulatedSource(src string, n int) scanSource {
	return func(t *testing.T) ([]*ctt.RankCTT, [][]trace.Event) {
		_, ctts, raw := collect(t, src, n)
		return ctts, raw
	}
}

// The equivalence tests below hold every merge entry point to the scan: All
// at 0 and 4 workers and Serial must encode to exactly the bytes of the same
// schedule run with keyOn false, where no key is consulted and every probe is
// a compatible() walk; and every rank's replay of the result must equal the
// raw trace it was compressed from. Their names come from the fingerprint
// fast paths they once checked; the merge now has no fast path, and the
// checks stand against the keyed merge instead.

// TestFingerprintEquivalenceSmall stresses the reduction's unbalanced split:
// jacobi at 7 = 4+3 and 13 = 7+6 ranks.
func TestFingerprintEquivalenceSmall(t *testing.T) {
	checkMatchesScan(t, []scanCase{
		{"jacobi-7", simulatedSource(jacobiSrc, 7), nil},
		{"jacobi-13", simulatedSource(jacobiSrc, 13), nil},
	})
}

// TestFingerprintEquivalence1000 drives four interleaved stride-4 groups per
// vertex at 1000 ranks.
func TestFingerprintEquivalence1000(t *testing.T) {
	checkMatchesScan(t, []scanCase{
		{"direct-1000", func(t *testing.T) ([]*ctt.RankCTT, [][]trace.Event) { return directDriveCTTs(t, 1000) }, rankMod4Groups},
	})
}

// TestFingerprintEquivalenceNPB runs the three NPB workloads that fragment,
// each for its own reason: SP splits every leaf by message size (one key per
// group: the index rejects almost every probe), CG by peer pattern period
// (the same), DT by a plain p2p peer (one key for many groups: the walks
// decide).
func TestFingerprintEquivalenceNPB(t *testing.T) {
	var cases []scanCase
	for _, name := range []string{"SP", "CG", "DT"} {
		for _, n := range []int{64, 256} {
			cases = append(cases, scanCase{fmt.Sprintf("%s-%d", name, n), simulatedSource(npb.Get(name).Source(n, npb.Small), n), nil})
		}
	}
	checkMatchesScan(t, cases)
}

// checkMatchesScan runs each case through All(0), All(4) and Serial and
// holds the result to the unkeyed scan and to the raw traces.
func checkMatchesScan(t *testing.T, cases []scanCase) {
	t.Helper()
	keyed := func(workers int) func([]*ctt.RankCTT) (*Merged, error) {
		return func(c []*ctt.RankCTT) (*Merged, error) { return All(c, workers) }
	}
	scanAll := func(c []*ctt.RankCTT) (*Merged, error) { return all(c, 1, false, false) }
	scanSerial := func(c []*ctt.RankCTT) (*Merged, error) { return serial(c, false) }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Pair consumes its operands: every merge gets fresh trees.
			merged := func(merge func([]*ctt.RankCTT) (*Merged, error)) (*Merged, [][]trace.Event) {
				ctts, raw := tc.src(t)
				m, err := merge(ctts)
				if err != nil {
					t.Fatal(err)
				}
				return m, raw
			}
			refAll, _ := merged(scanAll)
			refSerial, _ := merged(scanSerial)
			wantAll, wantSerial := encodeBytes(t, refAll), encodeBytes(t, refSerial)
			for _, run := range []struct {
				name  string
				merge func([]*ctt.RankCTT) (*Merged, error)
				want  []byte
			}{
				{"All(0)", keyed(0), wantAll},
				{"All(4)", keyed(4), wantAll},
				{"Serial", Serial, wantSerial},
			} {
				m, raw := merged(run.merge)
				if !bytes.Equal(encodeBytes(t, m), run.want) {
					t.Fatalf("%s differs from the scan reference", run.name)
				}
				if tc.check != nil {
					tc.check(t, m)
				}
				for rank := range raw {
					seq, err := replay.Sequence(m.ForRank(rank), rank)
					if err != nil {
						t.Fatalf("%s rank %d: %v", run.name, rank, err)
					}
					if err := replay.Equivalent(raw[rank], seq); err != nil {
						t.Fatalf("%s rank %d: %v", run.name, rank, err)
					}
				}
			}
		})
	}
}

// rankMod4Groups checks the grouping directDriveCTTs' rank%4 divergence
// predicts: vertices whose data depends on the loop count (the loop itself,
// the send/recv leaves) split into exactly four groups with interleaved
// stride-4 rank sets; iteration-independent vertices (root, the collective)
// stay fully shared. Either way the groups partition all ranks.
func rankMod4Groups(t *testing.T, m *Merged) {
	t.Helper()
	split := 0
	for gid, es := range m.Entries {
		if es == nil {
			continue
		}
		if len(es) != 1 && len(es) != 4 {
			t.Fatalf("vertex %d: %d groups, want 1 or 4", gid, len(es))
		}
		if len(es) == 4 {
			split++
		}
		total := 0
		for _, e := range es {
			total += e.Ranks.Len()
		}
		if total != m.NumRanks {
			t.Fatalf("vertex %d: groups cover %d of %d ranks", gid, total, m.NumRanks)
		}
	}
	if split < 3 {
		t.Fatalf("only %d vertices split into 4 groups; loop divergence not captured", split)
	}
}

// equivSrc is the program shape behind TestFingerprintEquivalence1000: a
// stencil exchange inside one loop, then a
// collective.
const equivSrc = `
func main() {
	for var i = 0; i < 16; i = i + 1 {
		send(rank + 1, 4096, 7);
		recv(rank - 1, 4096, 7);
	}
	reduce(0, 8);
}`

// directDriveCTTs builds n per-rank CTTs by driving each compressor directly,
// without the simulator, so the test scales to 1000 ranks in milliseconds,
// and returns each rank's events alongside. Like the simulator it brackets
// the run with MPI_Init/Finalize, which replay expects on the root's record
// list. Iteration counts vary with rank%4,
// which splits every loop-dependent vertex into four groups whose rank sets
// interleave with stride 4 — exercising both walks that refuse (across
// groups) and the stride-set union's overlapping layout at scale.
func directDriveCTTs(t *testing.T, n int) ([]*ctt.RankCTT, [][]trace.Event) {
	t.Helper()
	prog, err := lang.Parse(equivSrc)
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
	var loop, sendLeaf, recvLeaf, redLeaf *cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		switch {
		case loop == nil && v.Kind == cst.KindLoop:
			loop = v
		case sendLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpSend:
			sendLeaf = v
		case recvLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpRecv:
			recvLeaf = v
		case redLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpReduce:
			redLeaf = v
		}
	})
	if loop == nil || sendLeaf == nil || recvLeaf == nil || redLeaf == nil {
		t.Fatal("equivSrc tree missing vertices")
	}
	out := make([]*ctt.RankCTT, n)
	raw := make([][]trace.Event, n)
	for r := 0; r < n; r++ {
		c := ctt.NewCompressor(tree, r, timestat.ModeMeanStddev)
		event := func(ev trace.Event) {
			raw[r] = append(raw[r], ev)
			c.Event(&ev)
		}
		event(trace.Event{Op: trace.OpInit, Peer: trace.NoPeer, ReqID: -1})
		c.LoopEnter(int32(loop.Site))
		iters := 16 + r%4
		for k := 0; k < iters; k++ {
			c.LoopIter(int32(loop.Site))
			c.CommSite(int32(sendLeaf.Site))
			event(trace.Event{Op: trace.OpSend, Peer: r + 1, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1500, ComputeNS: 40})
			c.CommSite(int32(recvLeaf.Site))
			event(trace.Event{Op: trace.OpRecv, Peer: r - 1, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1600, ComputeNS: 55})
		}
		c.StructExit()
		c.CommSite(int32(redLeaf.Site))
		event(trace.Event{Op: trace.OpReduce, Peer: 0, Size: 8, ReqID: -1, DurationNS: 2200, ComputeNS: 70})
		event(trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer, ReqID: -1})
		c.Finalize()
		out[r] = c.Finish()
	}
	return out, raw
}

// TestAllWorkerEdges exercises the bounded-semaphore reduction at its edge
// configurations: workers=0 (GOMAXPROCS default), workers=1 (fully inline
// recursion), and workers far beyond both the rank count and any sensible
// core count. Every configuration must produce a tree replay-equivalent to
// the serial schedule. Pair consumes its operands, so each configuration
// merges a freshly collected set of CTTs.
func TestAllWorkerEdges(t *testing.T) {
	const n = 12
	_, refCtts, _ := collect(t, jacobiSrc, n)
	ref, err := Serial(refCtts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 64} {
		_, ctts, _ := collect(t, jacobiSrc, n)
		m, err := All(ctts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.NumRanks != n || m.EventCount != ref.EventCount {
			t.Fatalf("workers=%d: header %d ranks / %d events, want %d / %d",
				workers, m.NumRanks, m.EventCount, n, ref.EventCount)
		}
		if m.GroupCount() != ref.GroupCount() {
			t.Fatalf("workers=%d: group count %d, want %d", workers, m.GroupCount(), ref.GroupCount())
		}
		for rank := 0; rank < n; rank++ {
			a, err := replay.Sequence(m.ForRank(rank), rank)
			if err != nil {
				t.Fatalf("workers=%d rank %d: %v", workers, rank, err)
			}
			b, err := replay.Sequence(ref.ForRank(rank), rank)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay.Equivalent(a, b); err != nil {
				t.Fatalf("workers=%d rank %d: %v", workers, rank, err)
			}
		}
	}
}

// TestAllSingleRank checks the reduction's base case: one rank means no Pair
// call at all, under both All and AllNoRelative.
func TestAllSingleRank(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 1)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRanks != 1 {
		t.Fatalf("NumRanks = %d, want 1", m.NumRanks)
	}
	_, ctts2, _ := collect(t, jacobiSrc, 1)
	m2, err := AllNoRelative(ctts2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumRanks != 1 || m2.GroupCount() != m.GroupCount() {
		t.Fatalf("AllNoRelative single rank: %d ranks, %d groups (want %d)",
			m2.NumRanks, m2.GroupCount(), m.GroupCount())
	}
}

// TestAllEmptyInput checks that both entry points reject an empty job.
func TestAllEmptyInput(t *testing.T) {
	if _, err := All(nil, 0); err == nil {
		t.Fatal("All(nil) succeeded")
	}
	if _, err := AllNoRelative(nil, 4); err == nil {
		t.Fatal("AllNoRelative(nil) succeeded")
	}
}

// TestAllHashMismatchPropagates runs the parallel reduction over CTTs from
// two different programs and requires the CST-hash error to surface from
// whatever goroutine hit it, for every worker setting.
func TestAllHashMismatchPropagates(t *testing.T) {
	const n = 8
	for _, workers := range []int{0, 1, 32} {
		_, a, _ := collect(t, jacobiSrc, n)
		_, b, _ := collect(t, `func main() { allreduce(8); }`, n)
		mixed := append(a[:n/2:n/2], b[n/2:]...)
		_, err := All(mixed, workers)
		if err == nil {
			t.Fatalf("workers=%d: merged CTTs from different programs", workers)
		}
		if !strings.Contains(err.Error(), "hash mismatch") {
			t.Fatalf("workers=%d: error %q does not mention the hash mismatch", workers, err)
		}
	}
}

// TestAllNoRelativeParallelMatchesSerialSchedule verifies that running the
// ablation through the parallel reduction does not change its outcome: the
// noRel flag must reach every Pair regardless of schedule.
func TestAllNoRelativeParallelMatchesSerialSchedule(t *testing.T) {
	const n = 8
	src := `
func main() {
	for var k = 0; k < 6; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 256, 0); }
		if rank > 0 { recv(rank - 1, 256, 0); }
	}
}`
	_, ctts1, _ := collect(t, src, n)
	one, err := AllNoRelative(ctts1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ctts2, _ := collect(t, src, n)
	many, err := AllNoRelative(ctts2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if one.GroupCount() != many.GroupCount() {
		t.Fatalf("ablation group count depends on workers: %d vs %d",
			one.GroupCount(), many.GroupCount())
	}
	// And the ablation must actually differ from the relative-enabled merge:
	// absolute peers differ across ranks, so groups cannot unify.
	_, ctts3, _ := collect(t, src, n)
	rel, err := All(ctts3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.GroupCount() <= rel.GroupCount() {
		t.Fatalf("noRel groups (%d) should exceed relative-encoding groups (%d)",
			one.GroupCount(), rel.GroupCount())
	}
}
