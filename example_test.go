package cypress_test

import (
	"bytes"
	"fmt"
	"log"

	cypress "repro"
)

// ExampleCompile shows the static analysis half of the pipeline: MPL source
// in, communication structure tree out (paper Section III).
func ExampleCompile() {
	prog, err := cypress.Compile(`
func main() {
	for var i = 0; i < 4; i = i + 1 {
		if rank % 2 == 0 { send(rank + 1, 64, 0); }
		else { recv(rank - 1, 64, 0); }
	}
	reduce(0, 8);
}`)
	if err != nil {
		log.Fatal(err)
	}
	st := prog.CST.Stats()
	fmt.Printf("loops=%d branches=%d comm=%d\n", st.Loops, st.Branches, st.CommLeaves)
	// Output: loops=1 branches=2 comm=3
}

// ExampleProgram_Trace runs the dynamic half: execute on simulated ranks,
// compress on the fly, merge across processes (paper Section IV).
func ExampleProgram_Trace() {
	prog, err := cypress.Compile(`
func main() {
	for var i = 0; i < 100; i = i + 1 { allreduce(8); }
}`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Trace(8, cypress.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ranks=%d events=%d groups=%d\n",
		res.Merged.NumRanks, res.Merged.EventCount, res.Merged.GroupCount())
	// Output: ranks=8 events=816 groups=3
}

// ExampleResult_Replay demonstrates sequence-preserving decompression
// (paper Section V).
func ExampleResult_Replay() {
	prog, err := cypress.Compile(`
func main() {
	if rank == 0 { send(1, 256, 9); }
	if rank == 1 { recv(0, 256, 9); }
}`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Trace(2, cypress.Options{})
	if err != nil {
		log.Fatal(err)
	}
	seq, err := res.Replay(1)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range seq {
		fmt.Println(e.String())
	}
	// Output:
	// MPI_Init
	// MPI_Recv(peer=0 size=256 tag=9)
	// MPI_Finalize
}

// ExampleResult_WriteTrace writes the compressed trace file and opens it
// again for replay and LogGP prediction (paper Figures 2 and 14).
func ExampleResult_WriteTrace() {
	prog, err := cypress.Compile(`
func main() {
	for var i = 0; i < 10; i = i + 1 {
		if rank == 0 { send(1, 256, 0); }
		if rank == 1 { recv(0, 256, 0); }
		allreduce(8);
	}
}`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Trace(2, cypress.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := res.WriteTrace(&file, cypress.FormatRaw); err != nil {
		log.Fatal(err)
	}
	back, err := cypress.OpenTrace(file.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	seq, err := back.Replay(1)
	if err != nil {
		log.Fatal(err)
	}
	mat, err := back.CommMatrixPar(0)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := back.PredictPar(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rank 1 events=%d sent 0->1=%d predicted=%t\n", len(seq), mat[0][1], pred.TotalNS > 0)
	// Output: rank 1 events=22 sent 0->1=2560 predicted=true
}
