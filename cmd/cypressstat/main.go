// Command cypressstat inspects a merged CYPRESS trace: per-GID compression
// ratios, rank-group fragmentation, and stride-compression health — the
// paper's Table-3-style structural breakdown. It reads a trace file written
// by cypresstrace (raw, gzip, or CYPB block container, sniffed automatically)
// or traces a program
// in-process, in which case -stats can additionally report the live pipeline
// counters (fingerprint fast-path hits, pool reuse, stage timings).
//
// Usage:
//
//	cypressstat run.cyp                      # structural tables
//	cypressstat -json run.cyp                # same, as JSON
//	cypressstat -rank 3 run.cyp              # rank-projected decode economics
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
	"repro/internal/blockio"
	"repro/internal/corpus"
	"repro/internal/inspect"
	"repro/internal/merge"
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
	par := flag.Int("par", 0, "inflate workers for CYPB trace files (<= 1 inflates inline)")
	timeline := flag.String("timeline", "", "render a flight-recorder capture (Chrome trace-event JSON from -trace) as a text timeline, then exit")
	check := flag.Bool("check", false, "with -timeline: validate the capture against the trace-event schema and require a complete (drop-free) capture")
	rankProj := flag.Int("rank", -1, "decode a trace file through the rank-projected selective path and report the projection economics, then exit")
	debugAddr := flag.String("debug.addr", "", "serve pprof/expvar/obs on this address (e.g. localhost:6060)")
	flag.Parse()

	if *timeline != "" {
		if err := renderTimeline(*timeline, *check); err != nil {
			fail(err)
		}
		return
	}

	if *rankProj >= 0 {
		if flag.NArg() != 1 || isMPL(flag.Arg(0)) {
			fmt.Fprintln(os.Stderr, "cypressstat: -rank needs a trace-file argument")
			os.Exit(2)
		}
		if err := projectionStats(flag.Arg(0), *rankProj, *par, *jsonOut); err != nil {
			fail(err)
		}
		return
	}

	stop, err := obs.Capture("cypressstat", os.Stderr, *stats, "", *debugAddr)
	if err != nil {
		fail(err)
	}
	defer stop(nil) // -stats reports on stdout, below the analysis

	var m *merge.Merged
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
		m = traceInProcess(w.Source(*procs, npb.Paper), *procs)
	case flag.NArg() == 1 && isMPL(flag.Arg(0)):
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		m = traceInProcess(string(data), *procs)
	case flag.NArg() == 1:
		m, rawCYPR = readTraceFile(flag.Arg(0), *par)
	default:
		fmt.Fprintln(os.Stderr, "usage: cypressstat [flags] trace.cyp | prog.mpl  (or -workload NAME)")
		os.Exit(2)
	}

	if *fp {
		sfp, ch, err := fingerprints(m)
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

	a := inspect.Analyze(m)
	if *jsonOut {
		if err := a.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
	} else if err := a.WriteText(os.Stdout); err != nil {
		fail(err)
	}
	if *stats {
		r := obs.Attached().Report()
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

// projectionStats decodes one rank of a trace file through the selective
// path and reports the projection economics: whether the file carries a CYPI
// section index, and how many entries and payload bytes the projection
// materialized versus skipped at decode time.
func projectionStats(path string, rank, par int, jsonOut bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	payload, format, err := blockio.Unwrap(data, par)
	if err != nil {
		return err
	}
	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)
	m, err := merge.DecodeSelectAuto(payload, merge.SelectRanks(rank), par)
	if err != nil {
		return err
	}
	if rank >= m.NumRanks {
		fmt.Fprintf(os.Stderr, "cypressstat: rank %d out of range [0,%d)\n", rank, m.NumRanks)
		os.Exit(2)
	}
	indexed := merge.HasSectionIndex(payload)
	eagerE := s.Value(obs.SelEntriesEager)
	skipE := s.Value(obs.SelEntriesSkipped)
	eagerB := s.Value(obs.SelBytesMaterialized)
	skipB := s.Value(obs.SelBytesSkipped)
	fellBack := s.Value(obs.SelFallbacks) > 0
	avoided := 0.0
	if eagerB+skipB > 0 {
		avoided = 100 * float64(skipB) / float64(eagerB+skipB)
	}
	if jsonOut {
		fmt.Printf("{\"rank\":%d,\"ranks\":%d,\"container\":%q,\"section_index\":%t,\"fallback_full_decode\":%t,"+
			"\"entries_materialized\":%d,\"entries_skipped\":%d,"+
			"\"payload_bytes_materialized\":%d,\"payload_bytes_skipped\":%d}\n",
			rank, m.NumRanks, format.String(), indexed, fellBack, eagerE, skipE, eagerB, skipB)
		return nil
	}
	fmt.Printf("selective decode: rank %d of %d (container %s)\n", rank, m.NumRanks, format)
	yn := "no"
	if indexed {
		yn = "yes (cross-checked)"
	}
	fmt.Printf("  section index    %s\n", yn)
	if fellBack {
		fmt.Printf("  NOTE: selective path fell back to a full decode\n")
	}
	fmt.Printf("  entries          %d materialized, %d skipped\n", eagerE, skipE)
	fmt.Printf("  payload bytes    %d materialized, %d skipped (%.1f%% avoided)\n", eagerB, skipB, avoided)
	return nil
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
func fingerprints(m *merge.Merged) (structural, content uint64, err error) {
	structural, err = cypress.StructuralFingerprint(m)
	if err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
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
// compression-side counters (compressor intake, stride runs, merge
// fingerprint hits) are live in the -stats report.
func traceInProcess(src string, procs int) *merge.Merged {
	prog, err := cypress.Compile(src)
	if err != nil {
		fail(err)
	}
	res, err := prog.Trace(procs, cypress.Options{})
	if err != nil {
		fail(err)
	}
	return res.Merged
}

// readTraceFile decodes a trace file. blockio.Unwrap strips the container
// layer — gzip member, CYPB block container (par inflate workers), or none —
// so Cypress, Cypress+Gzip, and blocked files all work. For bare CYPR files
// the exact on-disk bytes are returned too (they are the corpus ingest unit);
// containered inputs return nil raw bytes.
func readTraceFile(path string, par int) (*merge.Merged, []byte) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	payload, format, err := blockio.Unwrap(data, par)
	if err != nil {
		fail(err)
	}
	m, err := merge.Decode(bytes.NewReader(payload))
	if err != nil {
		fail(err)
	}
	if format == blockio.FormatRaw {
		return m, data
	}
	return m, nil
}
