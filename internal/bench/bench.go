// Package bench regenerates every table and figure of the paper's evaluation
// (Section VII): trace sizes under six compression methods (Fig 15, 19),
// intra-process compression time/memory overhead (Fig 16), communication
// matrices (Fig 17, 20), inter-process merge cost (Fig 18), compilation
// overhead of the CST pass (Table I), and trace-driven performance
// prediction (Fig 21), plus ablations of CYPRESS's design choices.
//
// Absolute numbers differ from the paper (the substrate is a simulator, not
// the Explorer-100 cluster); the harness is built to reproduce the paper's
// shapes: orderings, growth trends, and crossovers. Intra-process time
// overhead uses the paper's own metric — wall-clock slowdown of the traced
// run relative to an untraced run.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	cypress "repro"
	"repro/internal/baseline/rawgzip"
	"repro/internal/baseline/scalatrace"
	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks process counts and iterations for smoke runs and tests.
	Quick bool
	// Full extends process counts to the paper's largest (400/512).
	Full bool
	// Workers bounds merge parallelism (0 = GOMAXPROCS).
	Workers int
}

// procsFor selects the process-count axis for a workload.
func (c Config) procsFor(w *npb.Workload) []int {
	if c.Quick {
		for _, n := range []int{16, 12, 8} {
			if w.ValidProcs(n) {
				return []int{n}
			}
		}
		return w.Procs[:1]
	}
	if c.Full {
		return w.Procs
	}
	if len(w.Procs) > 3 {
		return w.Procs[:3]
	}
	return w.Procs
}

func (c Config) scale() npb.Scale {
	if c.Quick {
		return npb.Small
	}
	return npb.Paper
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg Config) error
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I: compilation overhead of the CST pass", Table1},
		{"fig15", "Figure 15: total trace sizes, NPB x methods", Fig15},
		{"fig16", "Figure 16: intra-process compression overhead", Fig16},
		{"fig17", "Figure 17: communication patterns of MG and SP", Fig17},
		{"fig18", "Figure 18: inter-process compression overhead", Fig18},
		{"fig19", "Figure 19: LESlie3d trace sizes", Fig19},
		{"fig20", "Figure 20: LESlie3d communication patterns", Fig20},
		{"fig21", "Figure 21: LESlie3d performance prediction", Fig21},
		{"ablate", "Ablations: CYPRESS design choices", Ablations},
	}
}

// Get returns the experiment with the given id, or an error listing options.
func Get(id string) (Experiment, error) {
	var ids []string
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// Methods in figure order.
const (
	MGzip        = "Gzip"
	MScala       = "ScalaTrace"
	MScala2      = "ScalaTrace2"
	MScala2Gzip  = "ScalaTrace2+Gzip"
	MCypress     = "Cypress"
	MCypressGzip = "Cypress+Gzip"
)

// SizeMethods is the Figure 15 series order.
var SizeMethods = []string{MGzip, MScala, MScala2, MScala2Gzip, MCypress, MCypressGzip}

// Measured is the outcome of one (workload, P) evaluation under every method.
type Measured struct {
	Workload string
	Procs    int
	Events   int64   // total MPI events across ranks
	SimSec   float64 // synthetic application time (seconds)

	Sizes    map[string]int64   // method -> compressed trace bytes
	MemBytes map[string]int64   // method -> per-process compressor memory
	InterSec map[string]float64 // method -> inter-process merge seconds
}

// IntraMeasured is the outcome of the intra-process overhead experiment:
// wall-clock slowdown of the traced run relative to an untraced run, the
// paper's Figure 16 metric.
type IntraMeasured struct {
	Workload string
	Procs    int
	BaseSec  float64
	// SlowdownPct maps method -> 100 * (traced - base) / base.
	SlowdownPct map[string]float64
	// MemBytes maps method -> per-process compressor memory.
	MemBytes map[string]int64
}

// MeasureIntra runs the workload once untraced and once per method,
// reporting wall-clock slowdowns. Each timed run is repeated and the minimum
// is kept, which suppresses scheduler noise.
func MeasureIntra(w *npb.Workload, n int, cfg Config) (*IntraMeasured, error) {
	p, err := compileWorkload(w, n, cfg.scale())
	if err != nil {
		return nil, err
	}
	reps := 3
	if cfg.Quick {
		reps = 2
	}
	timeRun := func(reset func(), mk func(rank int) trace.Sink) (float64, error) {
		best := -1.0
		for r := 0; r < reps; r++ {
			if reset != nil {
				reset()
			}
			var sinks []trace.Sink
			if mk != nil {
				sinks = make([]trace.Sink, n)
				for i := range sinks {
					sinks[i] = mk(i)
				}
			}
			t0 := time.Now()
			if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
				interp.Execute(p.AST, r)
			}); err != nil {
				return 0, err
			}
			if d := time.Since(t0).Seconds(); best < 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	base, err := timeRun(nil, nil)
	if err != nil {
		return nil, err
	}
	out := &IntraMeasured{
		Workload:    w.Name,
		Procs:       n,
		BaseSec:     base,
		SlowdownPct: map[string]float64{},
		MemBytes:    map[string]int64{},
	}
	// Memory probes read the compressors of each method's FINAL timed rep.
	// The collector slices are reset at the start of every rep (the reset
	// hook below), so they hold exactly n live compressors afterwards —
	// previously they accumulated n compressors per rep, pinning every
	// warm-up rep's state in memory for the rest of the measurement.
	var lastCyp []*ctt.Compressor
	var lastSt1 []*scalatrace.Compressor
	methods := []struct {
		name  string
		reset func()
		mk    func(rank int) trace.Sink
	}{
		{MCypress, func() { lastCyp = lastCyp[:0] }, func(rank int) trace.Sink {
			c := ctt.NewCompressor(p.CST, rank, timestat.ModeMeanStddev)
			lastCyp = append(lastCyp, c)
			return c
		}},
		{MScala, func() { lastSt1 = lastSt1[:0] }, func(rank int) trace.Sink {
			c := scalatrace.NewCompressor(scalatrace.V1, rank, 0)
			lastSt1 = append(lastSt1, c)
			return c
		}},
		{MScala2, nil, func(rank int) trace.Sink {
			return scalatrace.NewCompressor(scalatrace.V2, rank, 0)
		}},
	}
	for _, meth := range methods {
		sec, err := timeRun(meth.reset, meth.mk)
		if err != nil {
			return nil, err
		}
		pct := 100 * (sec - base) / base
		if pct < 0 {
			pct = 0
		}
		out.SlowdownPct[meth.name] = pct
	}
	if len(lastCyp) != n || len(lastSt1) != n {
		return nil, fmt.Errorf("bench: memory probe saw %d/%d compressors, want %d", len(lastCyp), len(lastSt1), n)
	}
	var memCyp, memSt1 int64
	for _, c := range lastCyp {
		memCyp += c.MemoryBytes()
	}
	for _, c := range lastSt1 {
		memSt1 += c.MemoryBytes()
	}
	out.MemBytes[MCypress] = memCyp / int64(n)
	out.MemBytes[MScala] = memSt1 / int64(n)
	return out, nil
}

// fanout forwards one rank's stream to several sinks.
type fanout []trace.Sink

func (f fanout) LoopEnter(s int32) {
	for _, x := range f {
		x.LoopEnter(s)
	}
}
func (f fanout) LoopIter(s int32) {
	for _, x := range f {
		x.LoopIter(s)
	}
}
func (f fanout) BranchEnter(s int32, a int8) {
	for _, x := range f {
		x.BranchEnter(s, a)
	}
}
func (f fanout) BranchSkip(s int32) {
	for _, x := range f {
		x.BranchSkip(s)
	}
}
func (f fanout) CallEnter(s int32) {
	for _, x := range f {
		x.CallEnter(s)
	}
}
func (f fanout) StructExit() {
	for _, x := range f {
		x.StructExit()
	}
}
func (f fanout) CommSite(s int32) {
	for _, x := range f {
		x.CommSite(s)
	}
}
func (f fanout) Event(e *trace.Event) {
	for _, x := range f {
		// Each sink gets a private copy: compressors canonicalize in place.
		ev := *e
		if e.Reqs != nil {
			ev.Reqs = append([]int32(nil), e.Reqs...)
		}
		if e.ReqSrcs != nil {
			ev.ReqSrcs = append([]int32(nil), e.ReqSrcs...)
		}
		x.Event(&ev)
	}
}
func (f fanout) Finalize() {
	for _, x := range f {
		x.Finalize()
	}
}

// compileWorkload compiles a workload instance.
func compileWorkload(w *npb.Workload, n int, s npb.Scale) (*cypress.Program, error) {
	p, err := cypress.Compile(w.Source(n, s))
	if err != nil {
		return nil, fmt.Errorf("%s/%d: %w", w.Name, n, err)
	}
	return p, nil
}

// Measure runs one workload at one process count under every method.
func Measure(w *npb.Workload, n int, cfg Config) (*Measured, error) {
	p, err := compileWorkload(w, n, cfg.scale())
	if err != nil {
		return nil, err
	}
	cyp := make([]*ctt.Compressor, n)
	st1 := make([]*scalatrace.Compressor, n)
	st2 := make([]*scalatrace.Compressor, n)
	gz := make([]*rawgzip.Writer, n)
	sinks := make([]trace.Sink, n)
	for i := 0; i < n; i++ {
		cyp[i] = ctt.NewCompressor(p.CST, i, timestat.ModeMeanStddev)
		st1[i] = scalatrace.NewCompressor(scalatrace.V1, i, 0)
		st2[i] = scalatrace.NewCompressor(scalatrace.V2, i, 0)
		gz[i] = rawgzip.NewWriter()
		sinks[i] = fanout{cyp[i], st1[i], st2[i], gz[i]}
	}
	simNS, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
		interp.Execute(p.AST, r)
	})
	if err != nil {
		return nil, fmt.Errorf("%s/%d: run: %w", w.Name, n, err)
	}

	m := &Measured{
		Workload: w.Name,
		Procs:    n,
		SimSec:   simNS / 1e9,
		Sizes:    map[string]int64{},
		MemBytes: map[string]int64{},
		InterSec: map[string]float64{},
	}
	var memCyp, memSt1 int64
	for i := 0; i < n; i++ {
		memCyp += cyp[i].MemoryBytes()
		memSt1 += st1[i].MemoryBytes()
	}
	m.MemBytes[MCypress] = memCyp / int64(n)
	m.MemBytes[MScala] = memSt1 / int64(n)

	// Finish per-rank artifacts. Finishing is embarrassingly parallel (each
	// compressor owns its rank's state), and cycle detection plus peer-
	// pattern compression make it the most expensive post-run step at large
	// P, so it fans out over a bounded worker pool.
	ctts := make([]*ctt.RankCTT, n)
	tr1 := make([]*scalatrace.RankTrace, n)
	tr2 := make([]*scalatrace.RankTrace, n)
	parallelRanks(n, cfg.Workers, func(i int) {
		ctts[i] = cyp[i].Finish()
		tr1[i] = st1[i].Finish()
		tr2[i] = st2[i].Finish()
	})
	for i := 0; i < n; i++ {
		m.Events += ctts[i].EventCount
	}
	m.Sizes[MGzip] = rawgzip.TotalCompressed(gz)

	// Inter-process merges, timed.
	t0 := time.Now()
	merged, err := merge.All(ctts, cfg.Workers)
	if err != nil {
		return nil, err
	}
	m.InterSec[MCypress] = time.Since(t0).Seconds()

	t0 = time.Now()
	ms1, err := scalatrace.MergeAll(tr1, scalatrace.V1, cfg.Workers)
	if err != nil {
		return nil, err
	}
	m.InterSec[MScala] = time.Since(t0).Seconds()

	t0 = time.Now()
	ms2, err := scalatrace.MergeAll(tr2, scalatrace.V2, cfg.Workers)
	if err != nil {
		return nil, err
	}
	m.InterSec[MScala2] = time.Since(t0).Seconds()

	// Final trace sizes.
	m.Sizes[MCypress], err = merged.Encode(io.Discard)
	if err != nil {
		return nil, err
	}
	m.Sizes[MCypressGzip], err = merged.EncodeGzip(io.Discard)
	if err != nil {
		return nil, err
	}
	m.Sizes[MScala], err = ms1.Encode(io.Discard)
	if err != nil {
		return nil, err
	}
	m.Sizes[MScala2], err = ms2.Encode(io.Discard)
	if err != nil {
		return nil, err
	}
	m.Sizes[MScala2Gzip], err = ms2.EncodeGzip(io.Discard)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// parallelRanks runs fn(i) for every i in [0, n) on at most `workers`
// goroutines (0 = GOMAXPROCS). Work is distributed by an atomic counter so
// stragglers do not serialize behind a static partition.
func parallelRanks(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// measureAll runs Measure over each workload's configured process counts, one
// cell at a time so the merge timings of one cell never compete with another.
func measureAll(wls []*npb.Workload, cfg Config) ([]*Measured, error) {
	var out []*Measured
	for _, wl := range wls {
		for _, n := range cfg.procsFor(wl) {
			m, err := Measure(wl, n, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}

func kb(b int64) float64 { return float64(b) / 1024 }
