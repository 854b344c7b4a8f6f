// Prediction: the paper's Figure 21 case study — trace LESlie3d, decompress,
// and feed the sequences to the LogGP trace-driven simulator to predict the
// execution time, comparing against the (synthetic) measured time and
// reporting the communication-time share as the job scales.
package main

import (
	"fmt"
	"log"
	"math"

	cypress "repro"
)

func main() {
	w := cypress.Workload("LESlie3d")
	if w == nil {
		log.Fatal("LESlie3d workload missing")
	}
	fmt.Println("LESlie3d performance prediction (paper Figure 21)")
	fmt.Println("procs   measured(ms)  predicted(ms)  error%   comm%")
	for _, procs := range []int{8, 16, 32} {
		prog, err := cypress.Compile(w.Source(procs, 0 /* small scale */))
		if err != nil {
			log.Fatal(err)
		}
		res, err := prog.Trace(procs, cypress.Options{})
		if err != nil {
			log.Fatal(err)
		}
		pred, err := res.PredictPar(0)
		if err != nil {
			log.Fatal(err)
		}
		errPct := 100 * math.Abs(pred.TotalNS-res.SimulatedNS) / res.SimulatedNS
		fmt.Printf("%5d   %12.2f  %13.2f  %6.2f  %6.1f\n",
			procs, res.SimulatedNS/1e6, pred.TotalNS/1e6, errPct, 100*pred.CommFraction())
	}
	fmt.Println("\nThe prediction consumes only the compressed trace: sequence,")
	fmt.Println("per-record communication times, and per-record compute times.")
}
