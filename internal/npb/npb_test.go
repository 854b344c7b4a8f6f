package npb

import (
	"strings"
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

// smallProcs picks a fast-but-valid rank count per workload for unit tests.
func smallProcs(w *Workload) int {
	for _, n := range []int{16, 12, 9, 8} {
		if w.ValidProcs(n) {
			return n
		}
	}
	return w.Procs[0]
}

func TestRegistry(t *testing.T) {
	if len(All()) != 9 {
		t.Fatalf("registry has %d workloads", len(All()))
	}
	if Get("mg") == nil || Get("LESLIE3D") == nil {
		t.Fatal("case-insensitive lookup broken")
	}
	if Get("nosuch") != nil {
		t.Fatal("unknown workload returned")
	}
	if len(Names()) != 9 {
		t.Fatal("Names incomplete")
	}
}

func TestValidProcsMatchPaperCounts(t *testing.T) {
	for _, w := range All() {
		for _, n := range w.Procs {
			if !w.ValidProcs(n) {
				t.Errorf("%s: paper proc count %d rejected", w.Name, n)
			}
		}
	}
	if BT().ValidProcs(63) || CG().ValidProcs(60) || SP().ValidProcs(65) {
		t.Error("invalid counts accepted")
	}
}

func TestGridHelpers(t *testing.T) {
	if isqrt(121) != 11 || isqrt(120) != 10 {
		t.Fatal("isqrt wrong")
	}
	px, py := grid2(128)
	if px*py != 128 || px < py {
		t.Fatalf("grid2(128) = %d x %d", px, py)
	}
	a, b, c := grid3(64)
	if a*b*c != 64 {
		t.Fatalf("grid3(64) = %d %d %d", a, b, c)
	}
}

// TestAllWorkloadsRunCompressAndReplay is the package's core guarantee:
// every skeleton parses, checks, builds a CST, executes deadlock-free under
// CYPRESS compression, merges, and replays losslessly.
func TestAllWorkloadsRunCompressAndReplay(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			n := smallProcs(w)
			src := w.Source(n, Small)
			prog, err := lang.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, src)
			}
			if _, err := lang.Check(prog); err != nil {
				t.Fatalf("check: %v\n%s", err, src)
			}
			tree, err := cst.Build(prog)
			if err != nil {
				t.Fatalf("cst: %v", err)
			}
			comps := make([]*ctt.Compressor, n)
			raws := make([]*trace.CollectorSink, n)
			sinks := make([]trace.Sink, n)
			for i := range sinks {
				comps[i] = ctt.NewCompressor(tree, i, timestat.ModeMeanStddev)
				raws[i] = &trace.CollectorSink{}
				sinks[i] = teeSink{raws[i], comps[i]}
			}
			if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
				interp.Execute(prog, r)
			}); err != nil {
				t.Fatalf("run: %v", err)
			}
			ctts := make([]*ctt.RankCTT, n)
			var events int64
			for i, c := range comps {
				ctts[i] = c.Finish()
				events += ctts[i].EventCount
			}
			if events < int64(n)*3 {
				t.Fatalf("suspiciously few events: %d", events)
			}
			m, err := merge.All(ctts, 0)
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			for rank := 0; rank < n; rank++ {
				seq, err := replay.Sequence(m.ForRank(rank), rank)
				if err != nil {
					t.Fatalf("replay rank %d: %v\n%s", rank, err, tree.Dump())
				}
				if w.Name == "DT" {
					// DT uses non-blocking-free wildcard receives via recv(ANY):
					// Equivalent handles blocking wildcards (raw already has the
					// resolved source), so full equivalence still applies.
					if err := replay.Equivalent(raws[rank].Events, seq); err != nil {
						t.Fatalf("rank %d: %v", rank, err)
					}
					continue
				}
				if err := replay.Equivalent(raws[rank].Events, seq); err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
		})
	}
}

type teeSink struct {
	raw  *trace.CollectorSink
	comp *ctt.Compressor
}

func (t teeSink) LoopEnter(s int32)           { t.comp.LoopEnter(s) }
func (t teeSink) LoopIter(s int32)            { t.comp.LoopIter(s) }
func (t teeSink) BranchEnter(s int32, a int8) { t.comp.BranchEnter(s, a) }
func (t teeSink) BranchSkip(s int32)          { t.comp.BranchSkip(s) }
func (t teeSink) CallEnter(s int32)           { t.comp.CallEnter(s) }
func (t teeSink) StructExit()                 { t.comp.StructExit() }
func (t teeSink) CommSite(s int32)            { t.comp.CommSite(s) }
func (t teeSink) Event(e *trace.Event)        { t.raw.Event(e); t.comp.Event(e) }
func (t teeSink) Finalize()                   { t.comp.Finalize() }

func TestSPVariesSizesAndTagsPerProcess(t *testing.T) {
	// Paper Section VII-B: SP's message sizes and tags vary per process.
	n := 9
	src := SP().Source(n, Small)
	if !strings.Contains(src, "func xsz") {
		t.Fatal("SP lost its per-process size functions")
	}
	sinks := make([]trace.Sink, n)
	cols := make([]*trace.CollectorSink, n)
	for i := range sinks {
		cols[i] = &trace.CollectorSink{}
		sinks[i] = cols[i]
	}
	if _, err := interp.RunProgram(src, n, mpisim.Params{}, sinks); err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	tags := map[int]bool{}
	for _, c := range cols {
		for _, e := range c.Events {
			if e.Op.IsSendLike() {
				sizes[e.Size] = true
				tags[e.Tag] = true
			}
		}
	}
	if len(sizes) < 4 || len(tags) < 4 {
		t.Fatalf("SP should vary sizes/tags across processes: %d sizes, %d tags", len(sizes), len(tags))
	}
}

func TestLeslieTwoMessageSizes(t *testing.T) {
	n := 16
	w := Leslie3d()
	src := w.Source(n, Small)
	sinks := make([]trace.Sink, n)
	cols := make([]*trace.CollectorSink, n)
	for i := range sinks {
		cols[i] = &trace.CollectorSink{}
		sinks[i] = cols[i]
	}
	if _, err := interp.RunProgram(src, n, mpisim.Params{}, sinks); err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for _, c := range cols {
		for _, e := range c.Events {
			if e.Op.IsPointToPoint() {
				sizes[e.Size] = true
			}
		}
	}
	if len(sizes) != 2 || !sizes[43*1024] || !sizes[83*1024] {
		t.Fatalf("message sizes = %v, want {43KB, 83KB}", sizes)
	}
}

func TestEPNearlySilent(t *testing.T) {
	n := 8
	src := EP().Source(n, Small)
	sinks := make([]trace.Sink, n)
	cols := make([]*trace.CollectorSink, n)
	for i := range sinks {
		cols[i] = &trace.CollectorSink{}
		sinks[i] = cols[i]
	}
	if _, err := interp.RunProgram(src, n, mpisim.Params{}, sinks); err != nil {
		t.Fatal(err)
	}
	// Init + 3 allreduce + finalize only.
	if got := len(cols[0].Events); got != 5 {
		t.Fatalf("EP events = %d, want 5", got)
	}
}

func TestDTShuffleIsBijective(t *testing.T) {
	for _, n := range []int{48, 64, 128, 256} {
		half := n / 2
		seen := map[int]bool{}
		for i := 0; i < half; i++ {
			tgt := (i*7 + 3) % half
			if seen[tgt] {
				t.Fatalf("n=%d: shuffle collides at %d", n, tgt)
			}
			seen[tgt] = true
		}
	}
}

func TestMGIrregularAcrossRanks(t *testing.T) {
	// MG's coarse levels split ranks into multiple merge groups: the merged
	// tree must have more rank-groups than a regular workload like FT.
	countGroups := func(w *Workload, n int) int {
		src := w.Source(n, Small)
		prog, _ := lang.Parse(src)
		if _, err := lang.Check(prog); err != nil {
			t.Fatal(err)
		}
		tree, err := cst.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		comps := make([]*ctt.Compressor, n)
		sinks := make([]trace.Sink, n)
		for i := range sinks {
			comps[i] = ctt.NewCompressor(tree, i, timestat.ModeMeanStddev)
			sinks[i] = comps[i]
		}
		if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
			interp.Execute(prog, r)
		}); err != nil {
			t.Fatal(err)
		}
		ctts := make([]*ctt.RankCTT, n)
		for i, c := range comps {
			ctts[i] = c.Finish()
		}
		m, err := merge.All(ctts, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m.GroupCount()
	}
	mg := countGroups(MG(), 16)
	ft := countGroups(FT(), 16)
	if mg <= ft {
		t.Fatalf("MG groups %d should exceed FT groups %d", mg, ft)
	}
}
