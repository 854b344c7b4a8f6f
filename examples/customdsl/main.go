// Customdsl: author your own MPL program — including recursion, wildcard
// receives, and non-blocking communication — and watch how each source
// construct maps to CST vertices and compressed records.
package main

import (
	"bytes"
	"fmt"
	"log"

	cypress "repro"
)

const src = `
// A master/worker program with recursion and wildcards: not a textbook
// stencil, but everything still compresses through the structure tree.
func main() {
	if rank == 0 {
		master();
	} else {
		worker(4);
	}
	barrier();
}

func master() {
	// Collect one result per worker per round; senders arrive in any order.
	for var round = 0; round < 4; round = round + 1 {
		for var i = 0; i < size - 1; i = i + 1 {
			recv(ANY, 256, 7);
		}
		bcast(0, 64);
	}
}

func worker(rounds) {
	// Recursive countdown, one result per level (paper Figure 8 territory).
	if rounds == 0 { return; }
	compute(50000);
	send(0, 256, 7);
	bcast(0, 64);
	worker(rounds - 1);
}
`

func main() {
	prog, err := cypress.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recursive functions detected:", keys(prog.Recursive))
	fmt.Println("\ncommunication structure tree:")
	fmt.Print(prog.CST.Dump())

	const procs = 9
	res, err := prog.Trace(procs, cypress.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	n, _ := res.WriteTrace(&buf, cypress.FormatRaw)
	fmt.Printf("\n%d ranks, %d events -> %d bytes (%d rank groups)\n",
		procs, res.Merged.EventCount, n, res.Merged.GroupCount())

	// Rank 0 saw every worker's sends through wildcard receives; the
	// decompressed trace carries the resolved sources.
	seq, err := res.Replay(0)
	if err != nil {
		log.Fatal(err)
	}
	sources := map[int]int{}
	for _, e := range seq {
		if e.Wildcard {
			sources[e.Peer]++
		}
	}
	fmt.Printf("rank 0 resolved wildcard sources: %d distinct senders\n", len(sources))
}

func keys(m map[string]bool) []string {
	var out []string
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	return out
}
