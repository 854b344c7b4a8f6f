package bench

import (
	"fmt"
	"io"
	"math"
	"slices"
	"text/tabwriter"
	"time"

	cypress "repro"
	"repro/internal/cst"
	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/trace"
)

// nominal CLASS-D-ish application footprints (bytes, whole job) used to
// normalize per-process memory overhead like the paper's Figure 16.
var appFootprint = map[string]int64{
	"BT": 120 << 30, "CG": 60 << 30, "DT": 10 << 30, "EP": 1 << 30,
	"FT": 80 << 30, "LU": 100 << 30, "MG": 150 << 30, "SP": 120 << 30,
	"LESlie3d": 20 << 30,
}

// Table1 regenerates the compilation-overhead table: time to parse and check
// each NPB skeleton without and with the CST construction pass.
func Table1(w io.Writer, cfg Config) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table I: compilation overhead of the CST pass")
	fmt.Fprintln(tw, "Program\tw/o Cypress\tw/ Cypress\tOverhead(%)\tCST vertices")
	reps := 25
	if cfg.Quick {
		reps = 5
	}
	for _, wl := range npb.All() {
		n := cfg.procsFor(wl)[0]
		src := wl.Source(n, cfg.scale())
		base := time.Duration(math.MaxInt64)
		withCST := time.Duration(math.MaxInt64)
		var vertices int
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			prog, err := lang.Parse(src)
			if err != nil {
				return err
			}
			if _, err := lang.Check(prog); err != nil {
				return err
			}
			if d := time.Since(t0); d < base {
				base = d
			}
			tree, err := cst.Build(prog)
			if err != nil {
				return err
			}
			vertices = tree.NumVertices()
			if d := time.Since(t0); d < withCST {
				withCST = d
			}
		}
		ovh := 100 * float64(withCST-base) / float64(base)
		fmt.Fprintf(tw, "%s\t%.3fms\t%.3fms\t%.2f\t%d\n",
			wl.Name, base.Seconds()*1e3, withCST.Seconds()*1e3, ovh, vertices)
	}
	return tw.Flush()
}

// Fig15 regenerates the total-trace-size comparison across all NPB codes.
func Fig15(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Figure 15: total communication trace sizes (KB)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "Prog\tProcs\tEvents\t")
	for _, m := range SizeMethods {
		fmt.Fprintf(tw, "%s\t", m)
	}
	fmt.Fprintln(tw)
	var wls []*npb.Workload
	for _, wl := range npb.All() {
		if wl.Name == "LESlie3d" {
			continue // Figure 19's subject
		}
		wls = append(wls, wl)
	}
	ms, err := measureAll(wls, cfg)
	if err != nil {
		return err
	}
	for _, m := range ms {
		fmt.Fprintf(tw, "%s\t%d\t%d\t", m.Workload, m.Procs, m.Events)
		for _, meth := range SizeMethods {
			fmt.Fprintf(tw, "%.1f\t", kb(m.Sizes[meth]))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig16 regenerates the intra-process overhead comparison (time and memory).
// Time overhead is the wall-clock slowdown of the traced run relative to an
// untraced run — the paper's own metric; memory is the compressor's live
// footprint per process, normalized against the nominal application memory.
func Fig16(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Figure 16: intra-process compression overhead per process")
	fmt.Fprintln(w, "(time% = run slowdown vs untraced; mem% = compressor bytes / nominal app bytes per process)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Prog\tProcs\tScalaTrace t%\tScalaTrace2 t%\tCypress t%\tST mem/proc\tCyp mem/proc\tST mem%\tCyp mem%\t")
	subjects := []string{"BT", "CG", "FT", "LU", "MG", "SP"}
	for _, name := range subjects {
		wl := npb.Get(name)
		for _, n := range cfg.procsFor(wl) {
			m, err := MeasureIntra(wl, n, cfg)
			if err != nil {
				return err
			}
			appPerRank := float64(appFootprint[name]) / float64(n)
			mp := func(meth string) float64 { return 100 * float64(m.MemBytes[meth]) / appPerRank }
			fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.1fKB\t%.1fKB\t%.5f\t%.5f\t\n",
				name, n,
				m.SlowdownPct[MScala], m.SlowdownPct[MScala2], m.SlowdownPct[MCypress],
				kb(m.MemBytes[MScala]), kb(m.MemBytes[MCypress]),
				mp(MScala), mp(MCypress))
		}
	}
	return tw.Flush()
}

// Fig18 regenerates the inter-process merge cost comparison.
func Fig18(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Figure 18: inter-process trace compression overhead (seconds)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Prog\tProcs\tScalaTrace\tScalaTrace2\tCypress\tvs ST1\tvs ST2\t")
	subjects := []string{"BT", "CG", "LU", "MG", "SP"}
	var wls []*npb.Workload
	for _, name := range subjects {
		wls = append(wls, npb.Get(name))
	}
	ms, err := measureAll(wls, cfg)
	if err != nil {
		return err
	}
	for _, m := range ms {
		s1 := m.InterSec[MScala] / math.Max(m.InterSec[MCypress], 1e-9)
		s2 := m.InterSec[MScala2] / math.Max(m.InterSec[MCypress], 1e-9)
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\t%.4f\t%.1fx\t%.1fx\t\n",
			m.Workload, m.Procs, m.InterSec[MScala], m.InterSec[MScala2], m.InterSec[MCypress], s1, s2)
	}
	return tw.Flush()
}

// Fig19 regenerates the LESlie3d trace-size comparison.
func Fig19(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Figure 19: LESlie3d compressed trace sizes (KB)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Procs\tGzip\tScalaTrace\tCypress\tCypress+Gzip\t")
	ms, err := measureAll([]*npb.Workload{npb.Get("LESlie3d")}, cfg)
	if err != nil {
		return err
	}
	for _, m := range ms {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t\n",
			m.Procs, kb(m.Sizes[MGzip]), kb(m.Sizes[MScala]), kb(m.Sizes[MCypress]), kb(m.Sizes[MCypressGzip]))
	}
	return tw.Flush()
}

// traceWorkload traces one workload under CYPRESS only (helper for the
// matrix and prediction figures).
func traceWorkload(wl *npb.Workload, n int, cfg Config) (*cypress.Result, error) {
	p, err := compileWorkload(wl, n, cfg.scale())
	if err != nil {
		return nil, err
	}
	return p.Trace(n, cypress.Options{MergeWorkers: cfg.Workers})
}

// renderMatrix prints an ASCII heat map of the communication volume matrix,
// the textual equivalent of the paper's gray-scale plots.
func renderMatrix(w io.Writer, title string, mat [][]int64) {
	shades := []byte(" .:-=+*#%@")
	var maxV int64
	nnz := 0
	for _, row := range mat {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
			if v > 0 {
				nnz++
			}
		}
	}
	fmt.Fprintf(w, "%s  (ranks=%d, nonzero pairs=%d, max volume=%.1fKB)\n",
		title, len(mat), nnz, kb(maxV))
	if maxV == 0 {
		fmt.Fprintln(w, "  (no point-to-point traffic)")
		return
	}
	// Downsample large matrices to at most 64 columns for readability.
	n := len(mat)
	step := (n + 63) / 64
	for r := 0; r < n; r += step {
		fmt.Fprint(w, "  ")
		for c := 0; c < n; c += step {
			var block int64
			for dr := 0; dr < step && r+dr < n; dr++ {
				for dc := 0; dc < step && c+dc < n; dc++ {
					block += mat[r+dr][c+dc]
				}
			}
			idx := 0
			if block > 0 {
				frac := math.Log1p(float64(block)) / math.Log1p(float64(maxV)*float64(step*step))
				idx = 1 + int(frac*float64(len(shades)-2))
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			fmt.Fprintf(w, "%c", shades[idx])
		}
		fmt.Fprintln(w)
	}
}

// Fig17 regenerates the MG and SP communication-pattern matrices.
func Fig17(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Figure 17: communication patterns (volume per rank pair)")
	n := 64
	if cfg.Quick {
		n = 16
	}
	for _, name := range []string{"MG", "SP"} {
		wl := npb.Get(name)
		pn := n
		if !wl.ValidProcs(pn) {
			pn = wl.Procs[0]
		}
		res, err := traceWorkload(wl, pn, cfg)
		if err != nil {
			return err
		}
		mat, err := res.CommMatrixPar(0)
		if err != nil {
			return err
		}
		renderMatrix(w, fmt.Sprintf("(%s, %d processes)", name, pn), mat)
	}
	return nil
}

// Fig20 regenerates the LESlie3d communication-pattern matrices, including
// the locality analysis the paper's case study highlights.
func Fig20(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Figure 20: LESlie3d communication patterns")
	wl := npb.Get("LESlie3d")
	procs := []int{32, 64}
	if cfg.Quick {
		procs = []int{8, 16}
	}
	for _, n := range procs {
		res, err := traceWorkload(wl, n, cfg)
		if err != nil {
			return err
		}
		mat, err := res.CommMatrixPar(0)
		if err != nil {
			return err
		}
		renderMatrix(w, fmt.Sprintf("(LESlie3d, %d processes)", n), mat)
		// Per-paper analysis: neighbor count of rank 0 and distinct sizes.
		neighbors := 0
		for c, v := range mat[0] {
			if v > 0 && c != 0 {
				neighbors++
			}
		}
		var sizes []int // in order of first appearance, so the line is stable
		err = res.ReplayEvents(0, func(e *trace.Event) {
			if e.Op.IsPointToPoint() && !slices.Contains(sizes, e.Size) {
				sizes = append(sizes, e.Size)
			}
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  rank 0 communicates with %d peers; %d distinct message sizes: ", neighbors, len(sizes))
		for _, s := range sizes {
			fmt.Fprintf(w, "%.0fKB ", kb(int64(s)))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig21 regenerates the LESlie3d performance-prediction study.
func Fig21(w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "Figure 21: LESlie3d execution time prediction via decompressed traces")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Procs\tMeasured(ms)\tPredicted(ms)\tError(%)\tComm time(%)\t")
	wl := npb.Get("LESlie3d")
	var sumErr float64
	var rows int
	for _, n := range cfg.procsFor(wl) {
		res, err := traceWorkload(wl, n, cfg)
		if err != nil {
			return err
		}
		pred, err := res.PredictPar(0)
		if err != nil {
			return err
		}
		simNS := res.SimulatedNS
		errPct := 100 * math.Abs(pred.TotalNS-simNS) / simNS
		sumErr += errPct
		rows++
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.2f\t%.1f\t\n",
			n, simNS/1e6, pred.TotalNS/1e6, errPct, 100*pred.CommFraction())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "average prediction error: %.2f%%\n", sumErr/float64(rows))
	return fig21BySource(w, cfg)
}

// fig21BySource splits each skeleton's signed prediction error by source.
// The engine error, simmpi over a run's raw streams against its live clock,
// is 0: both engines price from mpisim's cost table, and root
// TestRawStreamsReproduceLiveClock holds them to ==. So on a run at
// NoiseFrac 0 the prediction from the compressed trace misses the live clock
// by the compression error alone, and the noise column is what the default
// NoiseFrac adds to the total.
func fig21BySource(w io.Writer, cfg Config) error {
	n := 64
	if cfg.Quick {
		n = 16
	}
	fmt.Fprintf(w, "Prediction error by source, %d ranks (signed, %% of the live clock; engine error 0)\n", n)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Prog\tLive(ms)\tCompression(%)\tNoise(%)\tTotal(%)\t")
	quiet := mpisim.DefaultParams()
	quiet.NoiseFrac = 0
	for _, wl := range npb.All() {
		p, err := compileWorkload(wl, n, cfg.scale())
		if err != nil {
			return err
		}
		res0, err := p.Trace(n, cypress.Options{Params: &quiet, MergeWorkers: cfg.Workers})
		if err != nil {
			return err
		}
		pred0, err := res0.PredictPar(0)
		if err != nil {
			return err
		}
		res, err := p.Trace(n, cypress.Options{MergeWorkers: cfg.Workers})
		if err != nil {
			return err
		}
		pred, err := res.PredictPar(0)
		if err != nil {
			return err
		}
		live := res0.SimulatedNS
		comp := 100 * (pred0.TotalNS - live) / live
		total := 100 * (pred.TotalNS - res.SimulatedNS) / res.SimulatedNS
		fmt.Fprintf(tw, "%s\t%.2f\t%+.1f\t%+.1f\t%+.1f\t\n", wl.Name, live/1e6, comp, total-comp, total)
	}
	return tw.Flush()
}
