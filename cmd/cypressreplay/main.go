// Command cypressreplay decompresses a CYPRESS trace file (paper Section V):
// it can print one rank's (or every rank's) exact event sequence, the job's
// communication matrix, or feed the decompressed traces to the LogGP
// simulator for a performance prediction.
//
// Usage:
//
//	cypressreplay -rank 3 run.cyp          # print rank 3's event sequence
//	cypressreplay -rank all run.cyp        # print every rank's sequence
//	cypressreplay -matrix run.cyp          # communication volume matrix
//	cypressreplay -predict -par 8 run.cyp  # LogGP performance prediction
//
// The file is opened once with cypress.OpenTrace and every mode runs on the
// resulting Result's streaming replayer (resolved views + shared replay
// skeletons, no full per-rank materialization) — there is no other replay
// path. -par N (0 = GOMAXPROCS) bounds the rank fan-out of -rank all and
// -matrix and the skeleton preparation behind -predict; the trace decode
// inflates inline and the LogGP simulation is one sequential sweep. The
// printed output and the predicted times are identical at every -par value.
// Trace files in any container — raw CYPR, gzip, or the CYPB block container
// — are sniffed automatically.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	cypress "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the requested report to
// stdout and diagnostics to stderr, and returns the exit status (0 ok, 1 the
// trace could not be read or replayed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cypressreplay:", err)
		return 1
	}
	fs := flag.NewFlagSet("cypressreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rankFlag := fs.String("rank", "", "print this rank's decompressed events, or \"all\" for every rank")
	matrix := fs.Bool("matrix", false, "print the communication volume matrix")
	predict := fs.Bool("predict", false, "run the LogGP performance prediction")
	par := fs.Int("par", 1, "worker bound (0 = GOMAXPROCS) for the -rank all / -matrix rank fan-out and -predict's skeleton preparation; results are identical at every value")
	limit := fs.Int("limit", 50, "max events to print per rank (0 = all)")
	stats := fs.Bool("stats", false, "print the pipeline observability report to stderr at exit")
	traceFile := fs.String("trace", "", "capture a flight-recorder timeline of the run and write Chrome trace-event JSON to this file (load in Perfetto)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cypressreplay [flags] trace.cyp")
		return 2
	}
	stop := obs.Capture("cypressreplay", stderr, *stats, *traceFile)
	defer stop(stderr)
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	// A numeric -rank is parsed before the decode so the single-rank query can
	// take the rank-projected selective path: only that rank's timing payloads
	// are materialized, and serving cost scales with the slice served rather
	// than the trace size.
	var project []int
	if *rankFlag != "" && *rankFlag != "all" {
		r, err := strconv.Atoi(*rankFlag)
		if err != nil || r < 0 {
			fmt.Fprintf(stderr, "cypressreplay: -rank wants a rank number or \"all\", got %q\n", *rankFlag)
			return 2
		}
		project = []int{r}
	}
	res, err := cypress.OpenTrace(data, project...)
	if err != nil {
		return fail(err)
	}
	m := res.Merged
	fmt.Fprintf(stdout, "trace: ranks=%d events=%d cst-vertices=%d\n",
		m.NumRanks, m.EventCount, m.Tree.NumVertices())

	switch {
	case *rankFlag == "all":
		if err := printAll(stdout, res, *par, *limit); err != nil {
			return fail(err)
		}
	case *rankFlag != "":
		rank := project[0]
		if rank >= m.NumRanks {
			fmt.Fprintf(stderr, "cypressreplay: rank %d out of range [0,%d)\n", rank, m.NumRanks)
			return 2
		}
		var buf bytes.Buffer
		if err := res.ReplayEvents(rank, eventPrinter(&buf, *limit)); err != nil {
			return fail(err)
		}
		stdout.Write(buf.Bytes())
	case *matrix:
		vol, err := res.CommMatrixPar(*par)
		if err != nil {
			return fail(err)
		}
		for r := range vol {
			for c, sent := range vol[r] {
				if sent > 0 {
					fmt.Fprintf(stdout, "  %d -> %d: %d bytes\n", r, c, sent)
				}
			}
		}
	case *predict:
		pred, err := res.PredictPar(*par)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "predicted execution time: %.3fms (communication %.1f%%)\n",
			pred.TotalNS/1e6, 100*pred.CommFraction())
	default:
		fmt.Fprintln(stderr, "cypressreplay: pick one of -rank, -matrix, -predict")
		return 2
	}
	return 0
}

// eventPrinter returns an emit callback that formats one rank's first limit
// events (0 = all) into w.
func eventPrinter(w *bytes.Buffer, limit int) func(*trace.Event) {
	printed := 0
	return func(e *trace.Event) {
		if limit > 0 && printed >= limit {
			return
		}
		fmt.Fprintf(w, "  %6d: %s dur=%.0fns\n", printed, e.String(), e.DurationNS)
		printed++
	}
}

// printAll prints every rank's sequence in rank order: ranks replay
// concurrently into per-rank buffers (events of one rank arrive in order on
// one goroutine) and print in order afterwards.
func printAll(stdout io.Writer, res *cypress.Result, par, limit int) error {
	n := res.Merged.NumRanks
	bufs := make([]bytes.Buffer, n)
	emit := make([]func(*trace.Event), n)
	for rank := range emit {
		emit[rank] = eventPrinter(&bufs[rank], limit)
	}
	err := res.Streamer().ReplayAll(par, func(rank int, e *trace.Event) { emit[rank](e) })
	if err != nil {
		return err
	}
	for rank := range bufs {
		fmt.Fprintf(stdout, "rank %d:\n", rank)
		stdout.Write(bufs[rank].Bytes())
	}
	return nil
}
