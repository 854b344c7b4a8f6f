package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// Ablations quantifies the design choices DESIGN.md calls out:
//
//  1. relative ranking encoding on/off: merged size and rank-group count on
//     a stencil workload, where the encoding does all the work;
//  2. the P-way merge's tree shape and its parallelism, measured apart;
//  3. histogram vs mean/stddev time recording: trace size cost of the
//     richer timing mode.
func Ablations(w io.Writer, cfg Config) error {
	if err := ablateRelative(w, cfg); err != nil {
		return err
	}
	if err := ablateParallelMerge(w, cfg); err != nil {
		return err
	}
	return ablateTimeMode(w, cfg)
}

// runCTTs executes a workload under CYPRESS, returning the per-rank trees.
func runCTTs(wl *npb.Workload, n int, cfg Config, mode timestat.Mode) ([]*ctt.RankCTT, error) {
	p, err := compileWorkload(wl, n, cfg.scale())
	if err != nil {
		return nil, err
	}
	comps := make([]*ctt.Compressor, n)
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		comps[i] = ctt.NewCompressor(p.CST, i, mode)
		sinks[i] = comps[i]
	}
	if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
		interp.Execute(p.AST, r)
	}); err != nil {
		return nil, err
	}
	out := make([]*ctt.RankCTT, n)
	for i, c := range comps {
		out[i] = c.Finish()
	}
	return out, nil
}

func mergedSize(ctts []*ctt.RankCTT, workers int) (int64, int, error) {
	m, err := merge.All(ctts, workers)
	if err != nil {
		return 0, 0, err
	}
	sz, err := m.Encode(io.Discard)
	return sz, m.GroupCount(), err
}

func ablateRelative(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Ablation 1: relative ranking encoding (LESlie3d stencil)")
	wl := npb.Get("LESlie3d")
	n := cfg.procsFor(wl)[0]
	withRel, err := runCTTs(wl, n, cfg, timestat.ModeMeanStddev)
	if err != nil {
		return err
	}
	m1, err := merge.All(withRel, cfg.Workers)
	if err != nil {
		return err
	}
	s1, err := m1.Encode(io.Discard)
	if err != nil {
		return err
	}
	withoutRel, err := runCTTs(wl, n, cfg, timestat.ModeMeanStddev)
	if err != nil {
		return err
	}
	m2, err := merge.AllNoRelative(withoutRel, cfg.Workers)
	if err != nil {
		return err
	}
	s2, err := m2.Encode(io.Discard)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  relative ON : merged=%8.1fKB groups=%d\n", kb(s1), m1.GroupCount())
	fmt.Fprintf(w, "  relative OFF: merged=%8.1fKB groups=%d (%.1fx larger)\n",
		kb(s2), m2.GroupCount(), float64(s2)/float64(s1))
	return nil
}

// ablateParallelMerge separates the two things a P-way merge's speed-up
// mixes: the shape of the reduction (merge.Serial is a left fold, merge.All a
// pairwise tree) and the workers that run the tree's pairs. Each variant
// merges a fresh set of per-rank trees, best of three.
func ablateParallelMerge(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Ablation 2: P-way merge, tree shape vs parallelism (SP)")
	wl := npb.Get("SP")
	n := cfg.procsFor(wl)[len(cfg.procsFor(wl))-1]
	variants := []struct {
		name  string
		merge func([]*ctt.RankCTT) (*merge.Merged, error)
	}{
		{"left fold (merge.Serial)", merge.Serial},
		{"tree, 1 worker", func(c []*ctt.RankCTT) (*merge.Merged, error) { return merge.All(c, 1) }},
		{"tree, 2 workers", func(c []*ctt.RankCTT) (*merge.Merged, error) { return merge.All(c, 2) }},
	}
	secs := make([]float64, len(variants))
	for i, v := range variants {
		secs[i] = math.Inf(1)
		for range 3 {
			ctts, err := runCTTs(wl, n, cfg, timestat.ModeMeanStddev)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := v.merge(ctts); err != nil {
				return err
			}
			secs[i] = min(secs[i], time.Since(t0).Seconds())
		}
		fmt.Fprintf(w, "  P=%d  %-24s %7.2fms  x%.2f vs left fold\n", n, v.name, 1e3*secs[i], secs[0]/secs[i])
	}
	fmt.Fprintf(w, "  tree shape x%.2f, parallelism x%.2f (tree, 1 → 2 workers)\n",
		secs[0]/secs[1], secs[1]/secs[2])
	return nil
}

func ablateTimeMode(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Ablation 3: time recording mode (CG)")
	wl := npb.Get("CG")
	n := cfg.procsFor(wl)[0]
	for _, mode := range []timestat.Mode{timestat.ModeMeanStddev, timestat.ModeHistogram} {
		ctts, err := runCTTs(wl, n, cfg, mode)
		if err != nil {
			return err
		}
		sz, _, err := mergedSize(ctts, cfg.Workers)
		if err != nil {
			return err
		}
		name := "mean/stddev"
		if mode == timestat.ModeHistogram {
			name = "histogram  "
		}
		fmt.Fprintf(w, "  %s merged=%8.1fKB\n", name, kb(sz))
	}
	return nil
}
