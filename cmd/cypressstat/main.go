// Command cypressstat inspects a merged CYPRESS trace: per-GID compression
// ratios, rank-group fragmentation, and stride-compression health — the
// paper's Table-3-style structural breakdown. It reads a trace file
// cypresstrace wrote in any -format, or traces a program in-process, in which
// case -stats can additionally report the live pipeline counters (merge key
// rejects and walks, stage timings).
//
// Usage:
//
//	cypressstat run.cyp                      # structural tables
//	cypressstat -json run.cyp                # same, as JSON
//	cypressstat -workload CG -procs 64       # trace in-process, then inspect
//	cypressstat -workload LU -procs 64 -stats  # + live pipeline counters
//	cypressstat -stats prog.mpl              # trace an MPL file in-process
//
// With a trace-file argument and -stats, only the decode-side counters are
// live (the compression happened in another process); tracing in-process
// reports the full pipeline.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	cypress "repro"
	"repro/internal/corpus"
	"repro/internal/inspect"
	"repro/internal/npb"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cypressstat:", err)
	os.Exit(1)
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the analysis as JSON")
	fp := flag.Bool("fp", false, "print the structural fingerprint and content hash, then exit")
	stats := flag.Bool("stats", false, "also print the pipeline observability report")
	workload := flag.String("workload", "", "trace a built-in workload in-process instead of reading a file")
	procs := flag.Int("procs", 8, "ranks for in-process tracing")
	timeline := flag.String("timeline", "", "render a flight-recorder capture (Chrome trace-event JSON from -trace) as a text timeline, then exit")
	check := flag.Bool("check", false, "with -timeline: validate the capture against the trace-event schema and require a complete (drop-free) capture")
	debugAddr := flag.String("debug.addr", "", "serve pprof/expvar/obs on this address (e.g. localhost:6060)")
	flag.Parse()

	if *timeline != "" {
		if err := renderTimeline(*timeline, *check); err != nil {
			fail(err)
		}
		return
	}

	stop, err := obs.Capture("cypressstat", os.Stderr, *stats, "", *debugAddr)
	if err != nil {
		fail(err)
	}
	defer stop(nil) // -stats reports on stdout, below the analysis

	var res *cypress.Result
	var rawCYPR []byte // exact file bytes when the input is a bare CYPR stream
	switch {
	case *workload != "":
		w := npb.Get(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "cypressstat: unknown workload %q (have %v)\n", *workload, npb.Names())
			os.Exit(2)
		}
		if !w.ValidProcs(*procs) {
			fmt.Fprintf(os.Stderr, "cypressstat: %s does not support %d processes\n", w.Name, *procs)
			os.Exit(2)
		}
		res = traceInProcess(w.Source(*procs, npb.Paper), *procs)
	case flag.NArg() == 1 && isMPL(flag.Arg(0)):
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		res = traceInProcess(string(data), *procs)
	case flag.NArg() == 1:
		res, rawCYPR = readTraceFile(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: cypressstat [flags] trace.cyp | prog.mpl  (or -workload NAME)")
		os.Exit(2)
	}

	if *fp {
		sfp, ch, err := fingerprints(res)
		if err != nil {
			fail(err)
		}
		// cypressarchive ingests bare CYPR files verbatim, so their corpus
		// address is the hash of the on-disk bytes; the (normalizing)
		// re-encoding only addresses containered inputs, which the archive
		// canonicalizes on add.
		if rawCYPR != nil {
			ch = corpus.ContentHash(rawCYPR)
		}
		if *jsonOut {
			fmt.Printf("{\"structural_fp\":%q,\"content_hash\":%q}\n",
				fmt.Sprintf("%016x", sfp), fmt.Sprintf("%016x", ch))
		} else {
			fmt.Printf("structural_fp  %016x\ncontent_hash   %016x\n", sfp, ch)
		}
		return
	}

	a := inspect.Analyze(res.Merged)
	if *jsonOut {
		if err := a.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
	} else if err := a.WriteText(os.Stdout); err != nil {
		fail(err)
	}
	if *stats {
		r := obs.Attached().Report()
		r.Spans = obs.AttachedRecorder().Totals()
		fmt.Println()
		if *jsonOut {
			if err := r.WriteJSON(os.Stdout); err != nil {
				fail(err)
			}
		} else if err := r.WriteText(os.Stdout); err != nil {
			fail(err)
		}
	}
}

// renderTimeline parses a flight-recorder capture file and prints it as a
// text timeline. With check, the capture is first validated against the
// Chrome trace-event schema invariants and rejected if any events were
// dropped to ring wraparound (the CI fixture job runs this mode).
func renderTimeline(path string, check bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := ftrace.ReadChromeJSON(f)
	if err != nil {
		return err
	}
	if check {
		if err := c.Validate(true); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cypressstat: capture valid: %d events, %d categories, 0 drops\n",
			len(c.Events), len(c.Cats()))
	}
	return c.WriteText(os.Stdout)
}

// fingerprints returns the whole-tree structural fingerprint (the corpus
// dedup class key, invariant across runs with identical communication
// structure) and the content hash of the trace's canonical standalone
// encoding (its corpus address, covering the timing payload too).
func fingerprints(res *cypress.Result) (structural, content uint64, err error) {
	structural, err = cypress.StructuralFingerprint(res.Merged)
	if err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	if _, err := res.WriteTrace(&buf, cypress.FormatRaw); err != nil {
		return 0, 0, err
	}
	return structural, corpus.ContentHash(buf.Bytes()), nil
}

// isMPL reports whether path looks like MPL source rather than a trace file.
func isMPL(path string) bool {
	if len(path) > 4 && path[len(path)-4:] == ".mpl" {
		return true
	}
	return false
}

// traceInProcess compiles and traces src in this process, so the
// compression-side counters (compressor intake, stride runs, merge key
// rejects and walks) are live in the -stats report.
func traceInProcess(src string, procs int) *cypress.Result {
	prog, err := cypress.Compile(src)
	if err != nil {
		fail(err)
	}
	res, err := prog.Trace(procs, cypress.Options{})
	if err != nil {
		fail(err)
	}
	return res
}

// readTraceFile opens a trace file in any container cypresstrace writes
// (raw, gzip or CYPB, sniffed by OpenTrace). For bare CYPR files the exact
// on-disk bytes are returned too (they are the corpus ingest unit);
// containered inputs return nil raw bytes.
func readTraceFile(path string) (*cypress.Result, []byte) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	res, err := cypress.OpenTrace(data)
	if err != nil {
		fail(err)
	}
	if bytes.HasPrefix(data, []byte("CYPR")) {
		return res, data
	}
	return res, nil
}
