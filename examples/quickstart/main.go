// Quickstart: the paper's Jacobi iteration (Figure 3) through the whole
// CYPRESS pipeline — compile to a CST, run under compression on 16 simulated
// ranks, inspect the merged trace, and verify lossless decompression.
package main

import (
	"bytes"
	"fmt"
	"log"

	cypress "repro"
	"repro/internal/replay"
)

const jacobi = `
// Simplified Jacobi iteration (paper Figure 3).
func main() {
	for var k = 0; k < 100; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
		compute(250000);
	}
	reduce(0, 8);
}`

func main() {
	// Static analysis: extract the communication structure tree.
	prog, err := cypress.Compile(jacobi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("communication structure tree:")
	fmt.Print(prog.CST.Dump())

	// Dynamic analysis: run 16 ranks under on-the-fly compression, keeping
	// raw traces so we can verify the round trip.
	const procs = 16
	res, err := prog.Trace(procs, cypress.Options{KeepRaw: true})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := res.WriteTrace(&buf, cypress.FormatRaw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d ranks, %d events -> %d bytes compressed (%.2f bytes/event)\n",
		procs, res.Merged.EventCount, n, float64(n)/float64(res.Merged.EventCount))
	fmt.Printf("rank groups after merge: %d (SPMD uniformity)\n", res.Merged.GroupCount())

	// Decompression is sequence-preserving: every rank's replayed events
	// match the raw trace exactly.
	for rank := 0; rank < procs; rank++ {
		seq, err := res.Replay(rank)
		if err != nil {
			log.Fatal(err)
		}
		if err := replay.Equivalent(res.Raw[rank], seq); err != nil {
			log.Fatalf("rank %d: %v", rank, err)
		}
	}
	fmt.Println("lossless round trip verified for all ranks")

	// The first few events of an interior rank.
	seq, _ := res.Replay(procs / 2)
	fmt.Printf("\nrank %d decompressed prefix:\n", procs/2)
	for i, e := range seq {
		if i >= 8 {
			break
		}
		fmt.Printf("  %s\n", e.String())
	}
}
