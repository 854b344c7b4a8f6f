// Command cypresstrace runs an MPL program (or a built-in workload) on the
// simulated MPI runtime under CYPRESS compression and writes the merged
// compressed trace file.
//
// Usage:
//
//	cypresstrace -procs 64 -o run.cyp prog.mpl
//	cypresstrace -workload LU -procs 128 -o lu.cyp -format gzip
//	cypresstrace -workload LU -procs 128 -o lu.cyp -format block
//	cypresstrace -workload LU -procs 128 -o lu.cyp -format index
//	cypresstrace -workload MG -procs 64            # stats only
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	cypress "repro"
	"repro/internal/npb"
	"repro/internal/obs"
)

// formats maps each -format value to the layout it writes.
var formats = map[string]cypress.Format{
	"raw":   cypress.FormatRaw,
	"gzip":  cypress.FormatGzip,
	"index": cypress.FormatIndexed,
	"block": cypress.FormatBlocked,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, traces the program, writes the
// trace file and a summary to stdout, diagnostics to stderr, and returns the
// exit status (0 ok, 1 the program could not be traced or written, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cypresstrace:", err)
		return 1
	}
	fs := flag.NewFlagSet("cypresstrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 8, "number of simulated MPI ranks")
	out := fs.String("o", "", "output trace file (stats only if empty)")
	formatName := fs.String("format", "raw", "trace file layout: raw, gzip (Cypress+Gzip), index (CYPI section index appended) or block (CYPB block container)")
	workload := fs.String("workload", "", "run a built-in workload instead of a file")
	hist := fs.Bool("hist", false, "record time histograms instead of mean/stddev")
	stats := fs.Bool("stats", false, "print the pipeline observability report to stderr at exit")
	traceFile := fs.String("trace", "", "capture a flight-recorder timeline of the run and write Chrome trace-event JSON to this file (load in Perfetto)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	format, ok := formats[*formatName]
	if !ok {
		fmt.Fprintf(stderr, "cypresstrace: -format wants raw, gzip, index or block, got %q\n", *formatName)
		return 2
	}

	var src string
	switch {
	case *workload != "":
		w := npb.Get(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "cypresstrace: unknown workload %q (have %v)\n", *workload, npb.Names())
			return 2
		}
		if !w.ValidProcs(*procs) {
			fmt.Fprintf(stderr, "cypresstrace: %s does not support %d processes\n", w.Name, *procs)
			return 2
		}
		src = w.Source(*procs, npb.Paper)
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		src = string(data)
	default:
		fmt.Fprintln(stderr, "usage: cypresstrace [flags] prog.mpl  (or -workload NAME)")
		return 2
	}

	stop := obs.Capture("cypresstrace", stderr, *stats, *traceFile)
	defer stop(stderr)

	prog, err := cypress.Compile(src)
	if err != nil {
		return fail(err)
	}
	var opts cypress.Options
	if *hist {
		opts.TimeMode = cypress.TimeHistogram
	}
	res, err := prog.Trace(*procs, opts)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "ranks=%d events=%d simulated=%.3fms rank-groups=%d\n",
		res.Merged.NumRanks, res.Merged.EventCount, res.SimulatedNS/1e6, res.Merged.GroupCount())

	var w io.Writer = io.Discard
	where := "(discarded)"
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w, where = f, *out
	}
	n, err := res.WriteTrace(w, format)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "compressed trace: %d bytes -> %s (%.1f bytes/event)\n",
		n, where, float64(n)/float64(res.Merged.EventCount))
	return 0
}
