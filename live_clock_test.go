package cypress

import (
	"fmt"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/simmpi"
	"repro/internal/trace/tracetest"
)

// arrivalPrograms are the programs whose runs depend on arrival order: a
// master–worker with blocking wildcard receives, wildcard Irecvs completed
// by one waitall, and partial completion by waitsome and by testany.
var arrivalPrograms = []struct{ name, src string }{
	{"master-worker", masterWorker},
	{"irecv-any-waitall", `
func main() {
	if rank == 0 {
		var a = irecv(ANY, 64, 0);
		var b = irecv(ANY, 64, 0);
		var c = irecv(ANY, 64, 0);
		compute(a + b + c);
		waitall();
	} else {
		send(0, 64, 0);
	}
}`},
	{"waitsome", `
func main() {
	var peer = (rank + 1) % size;
	var from = (rank + size - 1) % size;
	for var i = 0; i < 8; i = i + 1 {
		irecv(from, 128, i);
		isend(peer, 128, i);
		var done = 0;
		while done < 2 {
			done = done + waitsome();
		}
	}
}`},
	{"testany", `
func main() {
	var peer = (rank + 1) % size;
	var from = (rank + size - 1) % size;
	irecv(from, 64, 0);
	send(peer, 64, 0);
	var got = 0;
	while got == 0 {
		got = testany();
	}
}`},
}

// TestRawStreamsReproduceLiveClock holds the two engines to one cost table:
// at NoiseFrac 0, simulating a run's raw per-rank streams, keyed as the
// compressor keys them, lands exactly on the live run's clock. A rule one
// engine charges and the other does not shows here as a difference, however
// small; what is left between a prediction and the live clock is then
// compression and noise.
func TestRawStreamsReproduceLiveClock(t *testing.T) {
	params := mpisim.DefaultParams()
	params.NoiseFrac = 0
	check := func(t *testing.T, src string, n int) {
		p, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Trace(n, Options{Params: &params, KeepRaw: true})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := simmpi.Simulate(tracetest.KeyRaw(res.Raw), params)
		if err != nil {
			t.Fatal(err)
		}
		if sim.TotalNS != res.SimulatedNS {
			t.Errorf("simulated raw streams end at %v ns, the live clock at %v ns (%+g)",
				sim.TotalNS, res.SimulatedNS, sim.TotalNS-res.SimulatedNS)
		}
	}
	for _, w := range npb.All() {
		for _, n := range []int{16, 64} {
			t.Run(fmt.Sprintf("%s/n%d", w.Name, n), func(t *testing.T) {
				check(t, w.Source(n, npb.Paper), n)
			})
		}
	}
	for _, p := range arrivalPrograms {
		for _, n := range []int{4, 32} {
			t.Run(fmt.Sprintf("%s/n%d", p.name, n), func(t *testing.T) {
				check(t, p.src, n)
			})
		}
	}
}
