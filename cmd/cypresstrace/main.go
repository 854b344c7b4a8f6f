// Command cypresstrace runs an MPL program (or a built-in workload) on the
// simulated MPI runtime under CYPRESS compression and writes the merged
// compressed trace file.
//
// Usage:
//
//	cypresstrace -procs 64 -o run.cyp prog.mpl
//	cypresstrace -workload LU -procs 128 -o lu.cyp -gzip
//	cypresstrace -workload LU -procs 128 -o lu.cyp -block -par 4
//	cypresstrace -workload LU -procs 128 -o lu.cyp -index
//	cypresstrace -workload MG -procs 64            # stats only
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	cypress "repro"
	"repro/internal/npb"
	"repro/internal/obs"
)

func main() {
	procs := flag.Int("procs", 8, "number of simulated MPI ranks")
	out := flag.String("o", "", "output trace file (stats only if empty)")
	useGzip := flag.Bool("gzip", false, "gzip the trace file (Cypress+Gzip)")
	useBlock := flag.Bool("block", false, "write the CYPB block container (sharded deflate frames + seekable index)")
	useIndex := flag.Bool("index", false, "append the CYPI section index for rank-projected serving (composes with -gzip)")
	par := flag.Int("par", 0, "compression workers for -block (0 = GOMAXPROCS-derived default)")
	workload := flag.String("workload", "", "run a built-in workload instead of a file")
	hist := flag.Bool("hist", false, "record time histograms instead of mean/stddev")
	stats := flag.Bool("stats", false, "print the pipeline observability report to stderr at exit")
	traceFile := flag.String("trace", "", "capture a flight-recorder timeline of the run and write Chrome trace-event JSON to this file (load in Perfetto)")
	debugAddr := flag.String("debug.addr", "", "serve pprof/expvar/obs on this address (e.g. localhost:6060)")
	flag.Parse()
	if *useBlock && *useGzip {
		fmt.Fprintln(os.Stderr, "cypresstrace: -block and -gzip are mutually exclusive")
		os.Exit(2)
	}
	if *useBlock && *useIndex {
		// The CYPB footer index pins the framed payload length, which a
		// trailing sidecar would break.
		fmt.Fprintln(os.Stderr, "cypresstrace: -block and -index are mutually exclusive")
		os.Exit(2)
	}

	stop, err := obs.Capture("cypresstrace", os.Stderr, *stats, *traceFile, *debugAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cypresstrace:", err)
		os.Exit(1)
	}
	defer stop(os.Stderr)

	var src string
	switch {
	case *workload != "":
		w := npb.Get(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "cypresstrace: unknown workload %q (have %v)\n", *workload, npb.Names())
			os.Exit(2)
		}
		if !w.ValidProcs(*procs) {
			fmt.Fprintf(os.Stderr, "cypresstrace: %s does not support %d processes\n", w.Name, *procs)
			os.Exit(2)
		}
		src = w.Source(*procs, npb.Paper)
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cypresstrace:", err)
			os.Exit(1)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: cypresstrace [flags] prog.mpl  (or -workload NAME)")
		os.Exit(2)
	}

	prog, err := cypress.Compile(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cypresstrace:", err)
		os.Exit(1)
	}
	var opts cypress.Options
	if *hist {
		opts.TimeMode = cypress.TimeHistogram
	}
	res, err := prog.Trace(*procs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cypresstrace:", err)
		os.Exit(1)
	}
	fmt.Printf("ranks=%d events=%d simulated=%.3fms rank-groups=%d\n",
		res.Merged.NumRanks, res.Merged.EventCount, res.SimulatedNS/1e6, res.Merged.GroupCount())

	var w io.Writer = io.Discard
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cypresstrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	var n int64
	switch {
	case *useBlock:
		n, err = res.WriteTraceBlocked(w, *par)
	case *useIndex:
		n, err = res.WriteTraceIndexed(w, *useGzip)
	default:
		n, err = res.WriteTrace(w, *useGzip)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cypresstrace:", err)
		os.Exit(1)
	}
	where := "(discarded)"
	if *out != "" {
		where = *out
	}
	fmt.Printf("compressed trace: %d bytes -> %s (%.1f bytes/event)\n",
		n, where, float64(n)/float64(res.Merged.EventCount))
}
