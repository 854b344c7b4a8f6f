package bench

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/ctt"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/timestat"
)

// captureRanks is the rank count of the capture budgets below.
const captureRanks = 64

// captureCeilings holds the bytes one rank's capture (NewCompressor, the
// rank's recorded sink stream, Finish) may allocate on each npb skeleton at
// captureRanks ranks, small scale: the measured figure plus 10 %. MG folds
// record cycles, SP keeps a record per message size and CG folds peer
// patterns. With per-vertex record slabs MG took 39.8 KB, SP 25.0 KB and CG
// 9.4 KB.
var captureCeilings = []struct {
	workload string
	ceiling  uint64
}{
	{"MG", 28300}, // measured 25 752
	{"SP", 20800}, // measured 18 920
	{"CG", 8200},  // measured 7 457
}

// TestCaptureBytesAllocs holds the bytes capture allocates per rank under
// checked-in ceilings, with the metrics sink detached and attached, so a
// regression in the record arena fails here instead of only moving the
// ledger's alloc_mb_per_op.
func TestCaptureBytesAllocs(t *testing.T) {
	for _, tc := range captureCeilings {
		tree, streams := recordStreams(t, npb.Get(tc.workload).Source(captureRanks, npb.Small), captureRanks)
		for _, sink := range []*obs.Sink{nil, obs.New()} {
			obs.Attach(sink, nil)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r, s := range streams {
				c := ctt.NewCompressor(tree, r, timestat.ModeMeanStddev)
				s.replay(c)
				c.Finish()
			}
			runtime.ReadMemStats(&after)
			obs.Attach(nil, nil)
			perRank := (after.TotalAlloc - before.TotalAlloc) / captureRanks
			t.Logf("%s-%d, sink attached %v: %d B a rank (ceiling %d)", tc.workload, captureRanks, sink != nil, perRank, tc.ceiling)
			if perRank > tc.ceiling {
				t.Errorf("%s-%d capture allocates %d B a rank, ceiling %d", tc.workload, captureRanks, perRank, tc.ceiling)
			}
		}
	}
}

// TestMemoryBytesMatchesLiveHeap holds Compressor.MemoryBytes, which Figure
// 16's memory curves report, to the heap the live compressors of a run
// actually hold: within 20 % of the HeapAlloc growth from before the first
// NewCompressor to after the last rank's stream, both read after a GC.
func TestMemoryBytesMatchesLiveHeap(t *testing.T) {
	for _, name := range []string{"MG", "CG", "SP"} {
		tree, streams := recordStreams(t, npb.Get(name).Source(captureRanks, npb.Small), captureRanks)
		comps := make([]*ctt.Compressor, len(streams))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for r, s := range streams {
			comps[r] = ctt.NewCompressor(tree, r, timestat.ModeMeanStddev)
			s.replay(comps[r])
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(streams)
		live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		var reported float64
		for _, c := range comps {
			reported += float64(c.MemoryBytes())
		}
		t.Logf("%s-%d: MemoryBytes %.0f B a rank, live heap %.0f B a rank", name, captureRanks, reported/captureRanks, live/captureRanks)
		if math.Abs(reported-live) > 0.2*live {
			t.Errorf("%s-%d: MemoryBytes reports %.0f B a rank, the live heap grew %.0f B a rank", name, captureRanks, reported/captureRanks, live/captureRanks)
		}
	}
}
