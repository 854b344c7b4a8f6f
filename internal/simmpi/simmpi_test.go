package simmpi

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/replay"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// traceMerged runs src on n ranks under CYPRESS compression (the "measured"
// execution) and merges the per-rank trees.
func traceMerged(t testing.TB, src string, n int) (m *merge.Merged, measured float64) {
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
	comps := make([]*ctt.Compressor, n)
	sinks := make([]trace.Sink, n)
	for i := range comps {
		comps[i] = ctt.NewCompressor(tree, i, timestat.ModeMeanStddev)
		sinks[i] = comps[i]
	}
	measured, err = mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
		interp.Execute(prog, r)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ctts := make([]*ctt.RankCTT, n)
	for i, c := range comps {
		ctts[i] = c.Finish()
	}
	m, err = merge.All(ctts, 0)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return m, measured
}

// replaySeqs decompresses every rank of m.
func replaySeqs(t testing.TB, m *merge.Merged) [][]trace.Event {
	t.Helper()
	seqs := make([][]trace.Event, m.NumRanks)
	for rank := range seqs {
		var err error
		if seqs[rank], err = replay.Sequence(m.ForRank(rank), rank); err != nil {
			t.Fatalf("replay rank %d: %v", rank, err)
		}
	}
	return seqs
}

// decodedSeqs is the file-served pipeline: trace src on n ranks, encode the
// merged tree, decode the bytes, and replay the decoded tree. Completions in
// these sequences find their receives only if the decoder restored the
// call-site GIDs, which the wire format leaves implicit.
func decodedSeqs(t testing.TB, src string, n int) [][]trace.Event {
	t.Helper()
	m, _ := traceMerged(t, src, n)
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := merge.Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return replaySeqs(t, dec)
}

// haloSrc is an open-chain non-blocking halo exchange (the jacobi shape) with
// two receives outstanding at each waitall on interior ranks.
func haloSrc(iters int) string {
	return fmt.Sprintf(`
func main() {
	for var k = 0; k < %d; k = k + 1 {
		if rank > 0 { isend(rank - 1, 2048, 1); }
		if rank < size - 1 { isend(rank + 1, 2048, 2); }
		if rank > 0 { irecv(rank - 1, 2048, 2); }
		if rank < size - 1 { irecv(rank + 1, 2048, 1); }
		waitall();
		compute(20000 + rank * 130);
	}
}`, iters)
}

// measureAndPredict runs src on n ranks (the "measured" execution), then
// compresses, merges, decompresses, and simulates the replayed trace.
func measureAndPredict(t testing.TB, src string, n int) (measured float64, res Result) {
	t.Helper()
	m, measured := traceMerged(t, src, n)
	res, err := Simulate(replaySeqs(t, m), mpisim.DefaultParams())
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return measured, res
}

func relErr(a, b float64) float64 { return math.Abs(a-b) / math.Max(a, b) }

func TestPredictCollectiveOnly(t *testing.T) {
	measured, res := measureAndPredict(t, `
func main() {
	for var i = 0; i < 40; i = i + 1 {
		compute(50000);
		allreduce(64);
	}
}`, 8)
	if e := relErr(measured, res.TotalNS); e > 0.10 {
		t.Fatalf("prediction error %.1f%% (measured %.0f predicted %.0f)", e*100, measured, res.TotalNS)
	}
	if res.CommFraction() <= 0 || res.CommFraction() >= 1 {
		t.Fatalf("comm fraction = %f", res.CommFraction())
	}
}

func TestPredictJacobi(t *testing.T) {
	measured, res := measureAndPredict(t, `
func main() {
	for var k = 0; k < 30; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
		compute(200000);
	}
	reduce(0, 8);
}`, 8)
	if e := relErr(measured, res.TotalNS); e > 0.15 {
		t.Fatalf("prediction error %.1f%% (measured %.0f predicted %.0f)", e*100, measured, res.TotalNS)
	}
	// Compute dominates this configuration.
	if res.CommFraction() > 0.5 {
		t.Fatalf("comm fraction = %f, expected compute-dominated", res.CommFraction())
	}
}

func TestPredictNonblockingExchange(t *testing.T) {
	measured, res := measureAndPredict(t, `
func main() {
	for var k = 0; k < 25; k = k + 1 {
		var r1 = isend((rank + 1) % size, 4096, 0);
		var r2 = irecv((rank + size - 1) % size, 4096, 0);
		waitall();
		compute(r1 + r2 + 30000);
	}
}`, 6)
	if e := relErr(measured, res.TotalNS); e > 0.15 {
		t.Fatalf("prediction error %.1f%%", e*100)
	}
}

func TestCommFractionGrowsWithRanks(t *testing.T) {
	src := `
func main() {
	for var k = 0; k < 15; k = k + 1 {
		compute(100000);
		alltoall(2048);
	}
}`
	_, small := measureAndPredict(t, src, 4)
	_, big := measureAndPredict(t, src, 16)
	if big.CommFraction() <= small.CommFraction() {
		t.Fatalf("comm%% should grow with P: %f vs %f", small.CommFraction(), big.CommFraction())
	}
}

func TestSimulateEmptyErrors(t *testing.T) {
	if _, err := Simulate(nil, mpisim.DefaultParams()); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSimulateStallDetected(t *testing.T) {
	// A receive with no matching send must stall, not hang.
	seqs := [][]trace.Event{
		{{Op: trace.OpRecv, Size: 8, Peer: 1, Tag: 0}},
		{{Op: trace.OpBarrier, Peer: trace.NoPeer}},
	}
	if _, err := Simulate(seqs, mpisim.DefaultParams()); err == nil {
		t.Fatal("stall not detected")
	}
}

func TestSimulateCollectiveMismatchDetected(t *testing.T) {
	seqs := [][]trace.Event{
		{{Op: trace.OpBarrier, Peer: trace.NoPeer}},
		{{Op: trace.OpAllreduce, Size: 8, Peer: trace.NoPeer}},
	}
	if _, err := Simulate(seqs, mpisim.DefaultParams()); err == nil {
		t.Fatal("mismatch not detected")
	}
}

func TestCausalCouplingThroughSend(t *testing.T) {
	// Rank 0 computes 1ms then sends; rank 1 receives immediately. The
	// receiver's predicted clock must include the sender's compute time.
	seqs := [][]trace.Event{
		{{Op: trace.OpSend, Size: 8, Peer: 1, Tag: 0, ComputeNS: 1e6}},
		{{Op: trace.OpRecv, Size: 8, Peer: 0, Tag: 0}},
	}
	res, err := Simulate(seqs, mpisim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRankNS[1] < 1e6 {
		t.Fatalf("receiver clock %f ignores sender compute", res.PerRankNS[1])
	}
	if res.CommNS[1] <= 0 {
		t.Fatal("receive recorded no comm time")
	}
}
