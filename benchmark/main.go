// Command benchmark is the repository's performance ledger: four workloads,
// one canonical pipeline op, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. BENCHMARK.json at the repository root
// names the command, the workloads, the metrics and their regression bounds;
// README.md in this directory explains all of them.
//
//	bash benchmark/run.sh --workload shard-sp1024 --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Without --workload every workload runs in
// turn. The exit code is non-zero when any op failed or the oracle found a
// mismatch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark run of one workload.
type config struct {
	spec    workload
	seed    int64
	seconds float64 // length of the timed loop
	trace   bool
	setups  int    // set-up repetitions; the median is reported
	dir     string // scratch: per-op directories and trace files
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run ends with.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs all of them")
	seed := flag.Int64("seed", 1, "seed of the run parameters and rank queries")
	seconds := flag.Float64("seconds", 12, "length of the timed loop")
	trace := flag.Int("trace", 0, "1 records harness-side spans and reports the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "scratch directory for per-op files and trace output")
	calibrate := flag.Int("calibrate", 0, "run N seeds per workload and write the measured bounds into -benchjson")
	checkRepeat := flag.Int("check-repeat", 0, "run two sets of N seeds and fail if their medians differ by more than the bounds")
	benchJSON := flag.String("benchjson", "BENCHMARK.json", "benchmark description read by -calibrate and -check-repeat")
	flag.Parse()

	if *calibrate > 0 || *checkRepeat > 0 {
		if err := repeatability(*benchJSON, *calibrate, *checkRepeat); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	specs := workloads
	if *name != "" {
		spec, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		specs = []workload{spec}
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	failed := false
	for _, spec := range specs {
		cfg := config{spec: spec, seed: *seed, seconds: *seconds, trace: *trace != 0, setups: 3, dir: *dir}
		rep, err := runWorkload(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		failed = failed || !rep.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// runWorkload sets the workload up, checks the oracle, runs the timed loop
// and reduces the samples to the metrics of the chosen mode. An error means
// the run could not be made at all; failed ops and oracle mismatches are
// counted in the report instead.
func runWorkload(cfg config, log io.Writer) (report, error) {
	fmt.Fprintf(log, "== %s  seed=%d seconds=%g trace=%v\n", cfg.spec.name, cfg.seed, cfg.seconds, cfg.trace)
	s := series{}
	var fx *fixture
	for i := 0; i < cfg.setups; i++ {
		fx = nil // let the previous recording go before making the next
		t0 := time.Now()
		var err error
		if fx, err = buildFixture(cfg.spec, cfg.seed); err != nil {
			return report{}, err
		}
		s.add("setup_s", time.Since(t0).Seconds())
		s.add("cst.compile_s", fx.compileS)
		s.add("mpisim.record_s", fx.recordS)
	}
	s.add("cst.vertices", float64(cstVertices(fx.prog)))
	runtime.GC()

	tmp, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(tmp)
	r := newRunner(fx, tmp)
	r.s = s

	rep := report{Attempted: 1, Metrics: map[string]metricValue{}}
	want, bad, err := verify(fx, tmp, r.nproc)
	if err != nil {
		bad = append(bad, err.Error())
	}
	for _, line := range bad {
		fmt.Fprintln(log, "  oracle:", line)
	}
	if len(bad) > 0 {
		rep.Failed++
	}
	r.want = want

	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < cfg.seconds; i++ {
		r.tr.on = cfg.trace && i%2 == 1
		rep.Attempted++
		if err := r.timedOp(i); err != nil {
			rep.Failed++
			fmt.Fprintf(log, "  op %d failed: %v\n", i, err)
		}
	}
	r.tr.on = false

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := r.probes(); err != nil {
			rep.Failed++
			fmt.Fprintln(log, "  probe failed:", err)
		}
		for metric, name := range spanMetrics {
			s[metric] = r.tr.durations(name)
		}
		r.attribute(log)
		path := filepath.Join(cfg.dir, "trace-"+cfg.spec.name+".json")
		if err := r.tr.writeChromeJSON(path); err != nil {
			return report{}, err
		}
		fmt.Fprintf(log, "  spans written to %s\n", path)
	}
	for _, name := range exact {
		for _, v := range s[name] {
			if v != s[name][0] {
				rep.Failed++
				fmt.Fprintf(log, "  %s is not exact: %v then %v\n", name, s[name][0], v)
				break
			}
		}
	}
	printTable(log, defs, s)
	for _, d := range defs {
		v := median(s[d.name])
		if math.IsNaN(v) {
			rep.Failed++
			fmt.Fprintf(log, "  %s was not measured\n", d.name)
			v = 0
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// attribute reduces the traced ops to the self-time table: per span name,
// mean self time per op and its share of the traced op; then the part no
// layer span covers, and what tracing cost against the untraced ops it was
// interleaved with.
func (r *runner) attribute(log io.Writer) {
	ops := float64(len(r.s["pipeline_traced_s"]))
	if ops == 0 {
		return
	}
	self := r.tr.selfTimes()
	var total, layers float64
	for _, d := range self {
		total += d.Seconds() / ops
	}
	fmt.Fprintf(log, "  self time per traced op (%d ops, mean op %.6g s)\n", int(ops), total)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := self[name].Seconds() / ops
		if strings.Contains(name, ".") {
			layers += v
		}
		fmt.Fprintf(log, "    %-24s %12.6f s %6.2f %%\n", name, v, 100*v/total)
	}
	fmt.Fprintf(log, "    %-24s %12.6f s %6.2f %%\n", "sum of layers", layers, 100*layers/total)
	fmt.Fprintf(log, "    %-24s %12.6f s %6.2f %%\n", "unattributed", total-layers, 100*(total-layers)/total)
	r.s.add("bench.unattributed_s", total-layers)
	r.s.add("bench.trace_overhead_frac", median(r.s["pipeline_traced_s"])/median(r.s["pipeline_s"])-1)
}
