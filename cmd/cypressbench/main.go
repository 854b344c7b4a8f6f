// Command cypressbench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	cypressbench -exp fig15            # one experiment
//	cypressbench -exp all              # everything, default scale
//	cypressbench -exp fig18 -full      # extend to the paper's largest P
//	cypressbench -exp fig16 -quick     # smoke-test scale
//	cypressbench -exp none -stats      # one observed pipeline pass, counters to stderr
//	cypressbench -exp none -trace t.json  # the same pass as a Perfetto timeline
//	cypressbench -exp fig15 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Experiments: table1, fig15, fig16, fig17, fig18, fig19, fig20, fig21,
// ablate.
//
// Profiling: -cpuprofile writes a pprof CPU profile covering the whole run;
// -memprofile writes an allocation profile captured at exit (after a GC, so
// it reflects live heap plus cumulative allocs). Inspect either with
// `go tool pprof`. Performance claims are measured by the paired ledger in
// benchmark/ (see benchmark/README.md), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment id, 'all', or 'none' (with -stats or -trace: one pipeline pass over the 64-rank ring)")
	quick := flag.Bool("quick", false, "smoke-test scale (small iterations, few ranks)")
	full := flag.Bool("full", false, "extend to the paper's largest process counts")
	workers := flag.Int("workers", 0, "merge/finish parallelism (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	traceFile := flag.String("trace", "", "capture a flight-recorder timeline of the run and write Chrome trace-event JSON to this file (load in Perfetto)")
	stats := flag.Bool("stats", false, "print the pipeline observability report to stderr at exit")
	flag.Parse()

	if err := mainErr(*exp, *quick, *full, *workers, *cpuprofile, *memprofile, *traceFile, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "cypressbench:", err)
		os.Exit(1)
	}
}

// mainErr is the flag-free body, separated so deferred profile writers run
// before the process exits (os.Exit skips defers).
func mainErr(exp string, quick, full bool, workers int, cpuprofile, memprofile, traceFile string, stats bool) error {
	stop := obs.Capture("cypressbench", os.Stderr, stats, traceFile)
	defer stop(os.Stderr)
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cypressbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date live-heap numbers
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cypressbench: -memprofile:", err)
			}
		}()
	}

	if exp == "none" {
		if stats || traceFile != "" {
			// Nothing else exercises the pipeline; run one pass so -stats and
			// -trace alone still report every stage.
			fmt.Fprintln(os.Stderr, "cypressbench: running one pipeline pass...")
			return bench.Pipeline()
		}
		return nil
	}

	cfg := bench.Config{Quick: quick, Full: full, Workers: workers}
	run := func(e bench.Experiment) error {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		t0 := time.Now()
		if err := e.Run(os.Stdout, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", e.ID, time.Since(t0).Seconds())
		return nil
	}

	if exp == "all" {
		for _, e := range bench.Experiments() {
			if err := run(e); err != nil {
				return err
			}
		}
		return nil
	}
	e, err := bench.Get(exp)
	if err != nil {
		return err
	}
	return run(e)
}
