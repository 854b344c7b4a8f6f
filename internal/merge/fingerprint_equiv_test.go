package merge

import (
	"bytes"
	"testing"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/npb"
	"repro/internal/replay"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// setFingerprint flips the fingerprint fast-path gate for the duration of a
// test and restores it on cleanup. Tests in this package do not run in
// parallel, so toggling the package var is safe.
func setFingerprint(t *testing.T, on bool) {
	t.Helper()
	prev := fingerprintEnabled
	fingerprintEnabled = on
	t.Cleanup(func() { fingerprintEnabled = prev })
}

func encodeBytes(t testing.TB, m *Merged) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFingerprintEquivalenceSmall checks, at odd rank counts that stress the
// reduction's unbalanced split (7 = 4+3, 13 = 7+6), that the fingerprint fast
// path is invisible: All with fingerprints on produces byte-identical output
// to All with the exhaustive per-record walk, Serial likewise, and every
// rank's replayed event sequence matches the raw trace captured during the
// run. Byte identity is the strongest form of the losslessness claim in
// DESIGN.md: the fast path may only change how a merge decision is reached,
// never the decision or the encoding.
func TestFingerprintEquivalenceSmall(t *testing.T) {
	for _, n := range []int{7, 13} {
		// Reference: exhaustive path. Pair consumes its operands, so every
		// configuration merges a freshly collected set of CTTs.
		setFingerprint(t, false)
		_, ctts, _ := collect(t, jacobiSrc, n)
		refAll, err := All(ctts, 0)
		if err != nil {
			t.Fatalf("n=%d exhaustive All: %v", n, err)
		}
		refBytes := encodeBytes(t, refAll)
		_, ctts2, _ := collect(t, jacobiSrc, n)
		refSerial, err := Serial(ctts2)
		if err != nil {
			t.Fatalf("n=%d exhaustive Serial: %v", n, err)
		}
		refSerialBytes := encodeBytes(t, refSerial)

		// Fast path on: same reduction schedules must yield the same bytes.
		setFingerprint(t, true)
		_, ctts3, raw := collect(t, jacobiSrc, n)
		fpAll, err := All(ctts3, 0)
		if err != nil {
			t.Fatalf("n=%d fingerprint All: %v", n, err)
		}
		if !bytes.Equal(encodeBytes(t, fpAll), refBytes) {
			t.Fatalf("n=%d: fingerprint All output differs from exhaustive All", n)
		}
		_, ctts4, _ := collect(t, jacobiSrc, n)
		fpSerial, err := Serial(ctts4)
		if err != nil {
			t.Fatalf("n=%d fingerprint Serial: %v", n, err)
		}
		if !bytes.Equal(encodeBytes(t, fpSerial), refSerialBytes) {
			t.Fatalf("n=%d: fingerprint Serial output differs from exhaustive Serial", n)
		}
		if fpAll.GroupCount() != refSerial.GroupCount() {
			t.Fatalf("n=%d: All groups %d vs Serial groups %d",
				n, fpAll.GroupCount(), refSerial.GroupCount())
		}
		// Losslessness against the ground truth: replaying the fingerprint-
		// merged tree reproduces each rank's raw event sequence.
		for rank := 0; rank < n; rank++ {
			seq, err := replay.Sequence(fpAll.ForRank(rank), rank)
			if err != nil {
				t.Fatalf("n=%d rank %d: %v", n, rank, err)
			}
			if err := replay.Equivalent(raw[rank], seq); err != nil {
				t.Fatalf("n=%d rank %d: %v", n, rank, err)
			}
		}
	}
}

// equivSrc is the program shape behind the 1000-rank equivalence test: a
// stencil exchange inside one loop, then a collective.
const equivSrc = `
func main() {
	for var i = 0; i < 16; i = i + 1 {
		send(rank + 1, 4096, 7);
		recv(rank - 1, 4096, 7);
	}
	reduce(0, 8);
}`

// directDriveCTTs builds n per-rank CTTs by driving each compressor directly,
// without the simulator, so the test scales to 1000 ranks in milliseconds.
// Iteration counts vary with rank%4, which splits every vertex into four
// groups whose rank sets interleave with stride 4 — exercising both the
// fingerprint mismatch path (across groups) and the stride-set union's
// overlapping layout at scale.
func directDriveCTTs(t *testing.T, n int) []*ctt.RankCTT {
	t.Helper()
	prog, err := lang.Parse(equivSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	irProg, err := ir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := cst.Build(irProg)
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
	var ev trace.Event
	for r := 0; r < n; r++ {
		c := ctt.NewCompressor(tree, r, timestat.ModeMeanStddev)
		c.LoopEnter(int32(loop.Site))
		iters := 16 + r%4
		for k := 0; k < iters; k++ {
			c.LoopIter(int32(loop.Site))
			c.CommSite(int32(sendLeaf.Site))
			ev = trace.Event{Op: trace.OpSend, Peer: r + 1, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1500, ComputeNS: 40}
			c.Event(&ev)
			c.CommSite(int32(recvLeaf.Site))
			ev = trace.Event{Op: trace.OpRecv, Peer: r - 1, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1600, ComputeNS: 55}
			c.Event(&ev)
		}
		c.StructExit()
		c.CommSite(int32(redLeaf.Site))
		ev = trace.Event{Op: trace.OpReduce, Peer: 0, Size: 8, ReqID: -1, DurationNS: 2200, ComputeNS: 70}
		c.Event(&ev)
		c.Finalize()
		out[r] = c.Finish()
	}
	return out
}

// TestFingerprintEquivalence1000 scales the byte-identity check to 1000
// ranks: the fingerprint-accelerated parallel reduction must encode to
// exactly the bytes of the exhaustive reduction, with the grouped structure
// the rank%4 divergence predicts.
func TestFingerprintEquivalence1000(t *testing.T) {
	const n = 1000
	setFingerprint(t, false)
	ref, err := All(directDriveCTTs(t, n), 0)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := encodeBytes(t, ref)

	setFingerprint(t, true)
	fp, err := All(directDriveCTTs(t, n), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, fp), refBytes) {
		t.Fatal("fingerprint All(1000) output differs from exhaustive All(1000)")
	}
	if fp.NumRanks != n {
		t.Fatalf("NumRanks = %d", fp.NumRanks)
	}
	// rank%4 iteration divergence: vertices whose data depends on the loop
	// count (the loop itself, the send/recv leaves) split into exactly four
	// groups with interleaved stride-4 rank sets; iteration-independent
	// vertices (root, the collective) stay fully shared. Either way the
	// groups partition all n ranks.
	split := 0
	for gid, es := range fp.Entries {
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
		if total != n {
			t.Fatalf("vertex %d: groups cover %d ranks", gid, total)
		}
	}
	if split < 3 {
		t.Fatalf("only %d vertices split into 4 groups; loop divergence not captured", split)
	}
}

// TestFingerprintEquivalenceNPB holds the keyed probe to the exhaustive scan
// on the three workloads that fragment, each for its own reason: SP splits
// every leaf by message size (one key per group: the index rejects almost
// every probe), CG splits by peer alone (one key per leaf: the index rejects
// nothing and every chain is the whole list), DT mixes wildcard receives with
// a shuffled graph. All at 1 and 4 workers and Serial must encode to exactly
// the bytes of the fingerprintEnabled=false run of the same schedule, which
// consults neither fingerprints nor keys and so stays the oracle.
func TestFingerprintEquivalenceNPB(t *testing.T) {
	for _, name := range []string{"SP", "CG", "DT"} {
		for _, n := range []int{64, 256} {
			src := npb.Get(name).Source(n, npb.Small)
			// Pair consumes its operands: every merge gets fresh trees.
			merged := func(fpOn bool, merge func([]*ctt.RankCTT) (*Merged, error)) []byte {
				setFingerprint(t, fpOn)
				_, ctts, _ := collect(t, src, n)
				m, err := merge(ctts)
				if err != nil {
					t.Fatalf("%s-%d: %v", name, n, err)
				}
				return encodeBytes(t, m)
			}
			all := func(workers int) func([]*ctt.RankCTT) (*Merged, error) {
				return func(c []*ctt.RankCTT) (*Merged, error) { return All(c, workers) }
			}
			refAll, refSerial := merged(false, all(1)), merged(false, Serial)
			for _, workers := range []int{1, 4} {
				if !bytes.Equal(merged(true, all(workers)), refAll) {
					t.Errorf("%s-%d: All(%d workers) differs from the exhaustive reference", name, n, workers)
				}
			}
			if !bytes.Equal(merged(true, Serial), refSerial) {
				t.Errorf("%s-%d: Serial differs from the exhaustive reference", name, n)
			}
		}
	}
}
