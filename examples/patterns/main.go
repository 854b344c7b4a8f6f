// Patterns: extract communication-pattern matrices from compressed traces,
// the analysis behind the paper's Figures 17 and 20. The MG multigrid
// skeleton shows the irregular level-dependent pattern; the matrix is
// recovered entirely from the merged compressed trace, demonstrating that
// analysis never needs the raw event streams.
package main

import (
	"fmt"
	"log"
	"math"

	cypress "repro"
)

func main() {
	const procs = 32
	w := cypress.Workload("MG")
	if w == nil {
		log.Fatal("MG workload missing")
	}
	prog, err := cypress.Compile(w.Source(procs, 0 /* npb.Small */))
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Trace(procs, cypress.Options{})
	if err != nil {
		log.Fatal(err)
	}
	mat, err := res.CommMatrixPar(0)
	if err != nil {
		log.Fatal(err)
	}

	var maxV int64
	for _, row := range mat {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	fmt.Printf("MG on %d ranks: communication volume matrix (max %.1fKB per pair)\n\n",
		procs, float64(maxV)/1024)
	shades := []byte(" .:-=+*#%@")
	for r := 0; r < procs; r++ {
		fmt.Print("  ")
		for c := 0; c < procs; c++ {
			idx := 0
			if mat[r][c] > 0 {
				f := math.Log1p(float64(mat[r][c])) / math.Log1p(float64(maxV))
				idx = 1 + int(f*float64(len(shades)-2))
			}
			fmt.Printf("%c", shades[idx])
		}
		fmt.Println()
	}

	// The irregularity the paper highlights: coarse multigrid levels involve
	// only a subset of ranks, so neighbor counts differ across ranks.
	fmt.Println("\nper-rank neighbor counts (irregular across ranks):")
	for r := 0; r < procs; r++ {
		n := 0
		for c, v := range mat[r] {
			if v > 0 && c != r {
				n++
			}
		}
		fmt.Printf("%3d", n)
		if (r+1)%16 == 0 {
			fmt.Println()
		}
	}
	fmt.Println()
}
