package simmpi

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// fuzzSeqs decodes fuzz bytes into a structurally well-formed multi-rank
// trace: every generated receive is paired with a send in program order, so
// the trace simulates cleanly — with one deliberate exception, opcode 6,
// which rarely plants an unmatched receive that must stall the simulation.
func fuzzSeqs(data []byte) [][]trace.Event {
	if len(data) < 2 {
		return nil
	}
	n := 2 + int(data[0]%5)
	seqs := make([][]trace.Event, n)
	for r := range seqs {
		seqs[r] = []trace.Event{{Op: trace.OpInit, Peer: trace.NoPeer, ComputeNS: float64(r % 3)}}
	}
	pending := make([][]int32, n) // irecv/isend GIDs not yet completed by a waitall
	var nextGID int32 = 1
	i := 1
	take := func() int {
		if i >= len(data) {
			return 0
		}
		b := int(data[i])
		i++
		return b
	}
	for i < len(data) {
		op := take()
		switch op % 7 {
		case 0: // blocking matched pair
			src := take() % n
			dst := take() % n
			if src == dst {
				dst = (dst + 1) % n
			}
			tag := op % 3
			size := (take() % 8) * 256
			seqs[src] = append(seqs[src], trace.Event{Op: trace.OpSend, Peer: dst, Tag: tag,
				Size: size, ComputeNS: float64(take() % 50)})
			seqs[dst] = append(seqs[dst], trace.Event{Op: trace.OpRecv, Peer: src, Tag: tag,
				Size: size, ComputeNS: float64(take() % 50)})
		case 1: // non-blocking matched pair, completed by a later opcode-2 waitall
			src := take() % n
			dst := take() % n
			if src == dst {
				dst = (dst + 1) % n
			}
			tag := op % 3
			size := (take() % 8) * 128
			gid := nextGID
			nextGID++
			seqs[src] = append(seqs[src], trace.Event{Op: trace.OpIsend, Peer: dst, Tag: tag, Size: size})
			seqs[dst] = append(seqs[dst], trace.Event{Op: trace.OpIrecv, Peer: src, Tag: tag,
				Size: size, GID: gid})
			pending[dst] = append(pending[dst], gid)
		case 2: // complete every outstanding non-blocking op of one rank
			r := take() % n
			if len(pending[r]) == 0 {
				continue
			}
			reqs := append([]int32(nil), pending[r]...)
			pending[r] = pending[r][:0]
			seqs[r] = append(seqs[r], trace.Event{Op: trace.OpWaitall, Peer: trace.NoPeer,
				Reqs: reqs, ComputeNS: float64(take() % 40)})
		case 3: // collective across every rank
			ops := []trace.Op{trace.OpBarrier, trace.OpAllreduce, trace.OpBcast, trace.OpAlltoall}
			cop := ops[take()%len(ops)]
			size := 8 * (1 + take()%4)
			if cop == trace.OpBarrier {
				size = 0
			}
			for r := range seqs {
				seqs[r] = append(seqs[r], trace.Event{Op: cop, Peer: trace.NoPeer, Size: size,
					ComputeNS: float64(r % 5)})
			}
		case 4: // pure compute
			r := take() % n
			seqs[r] = append(seqs[r], trace.Event{Op: trace.OpNone,
				ComputeNS: float64(1 + take()%1000)})
		case 5: // density knob: consume a byte, emit nothing
		case 6: // rarely, an unmatched receive (tag 9 is never sent)
			if take()%13 == 0 {
				r := take() % n
				seqs[r] = append(seqs[r], trace.Event{Op: trace.OpRecv, Peer: (r + 1) % n,
					Tag: 9, Size: 64})
			}
		}
	}
	for r := range seqs {
		if len(pending[r]) > 0 {
			seqs[r] = append(seqs[r], trace.Event{Op: trace.OpWaitall, Peer: trace.NoPeer,
				Reqs: pending[r]})
		}
		seqs[r] = append(seqs[r], trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer})
	}
	return seqs
}

// ringSrc is a nearest-neighbour exchange on a ring whose receives are
// wildcards when wildcard is set and whose completions are waitsome loops
// when waitsome is set: the runs in which arrival decides what matches and
// what completes.
func ringSrc(iters int, wildcard, waitsome bool) string {
	left, right, complete := "left", "right", "waitall();"
	if wildcard {
		left, right = "ANY", "ANY"
	}
	if waitsome {
		complete = "var done = 0; while done < 4 { done = done + waitsome(); }"
	}
	return strings.NewReplacer("ITERS", strconv.Itoa(iters), "LEFT", left, "RIGHT", right,
		"COMPLETE", complete).Replace(`
func main() {
	var right = (rank + 1) % size;
	var left = (rank + size - 1) % size;
	for var i = 0; i < ITERS; i = i + 1 {
		irecv(LEFT, 128, i);
		irecv(RIGHT, 128, i);
		isend(right, 128, i);
		isend(left, 128, i);
		compute(300 * rank + 50);
		COMPLETE
	}
}`)
}

// liveClockMatches runs src live on n ranks at NoiseFrac 0 with raw capture
// and requires the simulation of the keyed raw streams to end on the live
// clock exactly: both engines price every operation from mpisim's cost table.
func liveClockMatches(t *testing.T, src string, n int) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	params := mpisim.DefaultParams()
	params.NoiseFrac = 0
	raws := make([]trace.CollectorSink, n)
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		sinks[i] = &raws[i]
	}
	live, err := mpisim.Run(n, params, sinks, func(r *mpisim.Rank) { interp.Execute(prog, r) })
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	raw := make([][]trace.Event, n)
	for i := range raws {
		raw[i] = raws[i].Events
	}
	sim, err := Simulate(tracetest.KeyRaw(raw), params)
	if err != nil {
		t.Fatalf("simulate raw streams: %v", err)
	}
	if sim.TotalNS != live {
		t.Fatalf("simulated raw streams end at %v ns, the live clock at %v ns", sim.TotalNS, live)
	}
}

// FuzzSimulate is the streaming-source fuzz gate: for any generated trace,
// SimulateStreamPar pulling through buffer-reusing sources must agree
// bit-for-bit with Simulate on the same slices, and error presence (stall)
// must match exactly. With decoded set, the first two bytes instead pick the
// rank and iteration counts of a real traced program (haloSrc) served through
// encode/decode, so the identity is also fuzzed where file-served waits block
// on their receives. The same program, and a ring exchange whose wildcard
// receives and waitsome completions a third byte switches on, then run live:
// simulating their raw streams must reproduce the live clock exactly.
func FuzzSimulate(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, false)
	f.Add([]byte{0, 7, 1, 0, 2, 50, 8, 2, 1, 9, 3, 0, 16, 14, 3, 2, 7, 0, 1}, false)
	f.Add([]byte{4, 3, 1, 10, 2, 3, 17, 21, 2, 2, 30, 3, 2, 8, 1, 1, 0, 5, 40}, false)
	f.Add([]byte{2, 6, 0, 1, 6, 13, 0}, false) // plants an unmatched recv → stall
	f.Add([]byte{3, 5}, true)
	f.Add([]byte{1, 2, 1}, true) // wildcard receives, waitall
	f.Add([]byte{2, 3, 2}, true) // named receives, waitsome
	f.Add([]byte{4, 1, 3}, true) // wildcard receives, waitsome
	params := mpisim.DefaultParams()
	f.Fuzz(func(t *testing.T, data []byte, decoded bool) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		seqs := fuzzSeqs(data)
		if seqs == nil {
			return
		}
		if decoded {
			n, iters := len(seqs), 1+int(data[1]%8)
			seqs = decodedSeqs(t, haloSrc(iters), n)
			liveClockMatches(t, haloSrc(iters), n)
			variant := 0
			if len(data) > 2 {
				variant = int(data[2])
			}
			liveClockMatches(t, ringSrc(iters, variant&1 != 0, variant&2 != 0), n)
		}
		want, wantErr := Simulate(seqs, params)
		got, err := SimulateStreamPar(reusingSources(seqs), params, 1)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error mismatch: stream %v vs slices %v", err, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("stream result diverges from slices (%v vs %v)", got.TotalNS, want.TotalNS)
		}
	})
}
