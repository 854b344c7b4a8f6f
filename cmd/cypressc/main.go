// Command cypressc runs the CYPRESS static analysis module: it compiles an
// MPL source file and emits the program's communication structure tree.
//
// Usage:
//
//	cypressc prog.mpl            # dump the CST in indented form
//	cypressc -o prog.cst prog.mpl  # write the serialized CST file
//	cypressc -stats prog.mpl     # vertex-kind statistics only
//	cypressc -workload CG -procs 64  # compile a built-in NPB skeleton
package main

import (
	"flag"
	"fmt"
	"os"

	cypress "repro"
	"repro/internal/lang"
	"repro/internal/npb"
)

func main() {
	out := flag.String("o", "", "write the serialized CST to this file")
	stats := flag.Bool("stats", false, "print vertex statistics instead of the tree")
	format := flag.Bool("fmt", false, "pretty-print the program source instead of the tree")
	workload := flag.String("workload", "", "compile a built-in workload instead of a file")
	procs := flag.Int("procs", 64, "process count for -workload source generation")
	flag.Parse()

	var src string
	switch {
	case *workload != "":
		w := npb.Get(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "cypressc: unknown workload %q (have %v)\n", *workload, npb.Names())
			os.Exit(2)
		}
		if !w.ValidProcs(*procs) {
			fmt.Fprintf(os.Stderr, "cypressc: %s does not support %d processes\n", w.Name, *procs)
			os.Exit(2)
		}
		src = w.Source(*procs, npb.Paper)
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cypressc:", err)
			os.Exit(1)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: cypressc [flags] prog.mpl  (or -workload NAME)")
		os.Exit(2)
	}

	prog, err := cypress.Compile(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cypressc:", err)
		os.Exit(1)
	}
	if *format {
		fmt.Print(lang.Format(prog.AST))
		return
	}
	st := prog.CST.Stats()
	if *stats {
		fmt.Printf("vertices=%d loops=%d branches=%d calls=%d comm=%d reccalls=%d hash=%x\n",
			st.Vertices, st.Loops, st.Branches, st.Calls, st.CommLeaves, st.RecCalls, prog.CST.Hash())
		return
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cypressc:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := prog.CST.Encode(f); err != nil {
			fmt.Fprintln(os.Stderr, "cypressc:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d vertices, hash %x)\n", *out, st.Vertices, prog.CST.Hash())
		return
	}
	fmt.Print(prog.CST.Dump())
}
