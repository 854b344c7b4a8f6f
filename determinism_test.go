package cypress

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/trace"
)

// masterWorker is a 32-rank master–worker: every round each worker computes
// for a rank-dependent time and sends rank 0 one result, which rank 0 takes
// with a wildcard receive. Its wildcards have up to 31 candidates, so the
// runtime, not the program, picks the match order.
const masterWorker = `
func main() {
	for var round = 0; round < 20; round = round + 1 {
		if rank == 0 {
			for var i = 1; i < size; i = i + 1 {
				recv(ANY, 256, 7);
			}
		} else {
			compute(50000 + rank * 10);
			send(0, 256, 7);
		}
	}
}`

// TestMasterWorkerOneTrace holds a wildcard program's trace to be a function
// of the program, the rank count and the network parameters: 20 runs at each
// of GOMAXPROCS 1, 2 and 4 encode to one byte string, and rank 0 matches the
// workers' messages in the order they become available (availNS, ties to the
// lowest source).
func TestMasterWorkerOneTrace(t *testing.T) {
	const n = 32
	p, err := Compile(masterWorker)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	var raw [][]trace.Event
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 20; run++ {
			res, err := p.Trace(n, Options{KeepRaw: raw == nil})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := res.WriteTrace(&buf, FormatRaw); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want, raw = buf.Bytes(), res.Raw
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("GOMAXPROCS=%d run %d: encoded trace differs from the first run's", procs, run)
			}
		}
	}

	// Each worker's k-th send is available at rank 0 one latency after the
	// send ends on the worker's clock, the sum of its events' compute and
	// duration times.
	latency := mpisim.DefaultParams().LatencyNS
	avail := make([][]float64, n)
	for w := 1; w < n; w++ {
		clock := 0.0
		for _, e := range raw[w] {
			clock += e.ComputeNS + e.DurationNS
			if e.Op == trace.OpSend {
				avail[w] = append(avail[w], clock+latency)
			}
		}
	}
	next := make([]int, n)
	prevAvail, prevSrc, recvs := 0.0, -1, 0
	for _, e := range raw[0] {
		if e.Op != trace.OpRecv {
			continue
		}
		src := e.Peer
		if !e.Wildcard || src < 1 || src >= n || next[src] == len(avail[src]) {
			t.Fatalf("recv %d: %+v does not match a worker's send", recvs, e)
		}
		a := avail[src][next[src]]
		next[src]++
		if a < prevAvail || a == prevAvail && src < prevSrc {
			t.Fatalf("recv %d took rank %d's message (availNS %.1f) after rank %d's (availNS %.1f)",
				recvs, src, a, prevSrc, prevAvail)
		}
		prevAvail, prevSrc = a, src
		recvs++
	}
	if recvs != 20*(n-1) {
		t.Fatalf("rank 0 received %d messages, want %d", recvs, 20*(n-1))
	}
}
