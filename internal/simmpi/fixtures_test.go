package simmpi

import (
	"testing"

	"repro/internal/trace"
)

// ringTrace builds n synthetic rank sequences for a blocking wraparound ring:
// every iteration sends to the right neighbor and receives from the left,
// with rank-varying compute and sizes, an allreduce every fourth iteration,
// and a closing finalize. Every receive has a matching send, so the trace
// simulates cleanly.
func ringTrace(n, iters int) [][]trace.Event {
	seqs := make([][]trace.Event, n)
	for r := 0; r < n; r++ {
		evs := []trace.Event{{Op: trace.OpInit, Peer: trace.NoPeer, ComputeNS: 50 + float64(r%7)*10}}
		for k := 0; k < iters; k++ {
			tag := k % 2
			size := 1024 + 512*(k%3)
			evs = append(evs,
				trace.Event{Op: trace.OpSend, Peer: (r + 1) % n, Tag: tag, Size: size,
					ComputeNS: float64(40 + (r*13)%90)},
				trace.Event{Op: trace.OpRecv, Peer: (r + n - 1) % n, Tag: tag, Size: size,
					ComputeNS: float64(20 + (k*7)%30)})
			if k%4 == 3 {
				evs = append(evs, trace.Event{Op: trace.OpAllreduce, Peer: trace.NoPeer, Size: 8,
					ComputeNS: 30})
			}
		}
		evs = append(evs, trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer})
		seqs[r] = evs
	}
	return seqs
}

// chainTrace builds an open-chain non-blocking halo exchange (the jacobi
// shape): each iteration posts isends and irecvs toward both neighbors and
// completes them with one waitall whose Reqs reference the poster GIDs.
func chainTrace(n, iters int) [][]trace.Event {
	const (
		gidSendL int32 = 100
		gidSendR int32 = 101
		gidRecvL int32 = 102
		gidRecvR int32 = 103
	)
	seqs := make([][]trace.Event, n)
	for r := 0; r < n; r++ {
		evs := []trace.Event{{Op: trace.OpInit, Peer: trace.NoPeer, ComputeNS: 25}}
		for k := 0; k < iters; k++ {
			var reqs []int32
			if r > 0 {
				evs = append(evs, trace.Event{Op: trace.OpIsend, Peer: r - 1, Tag: 1, Size: 2048,
					GID: gidSendL, ComputeNS: float64(30 + (r*11)%60)})
				reqs = append(reqs, gidSendL)
			}
			if r < n-1 {
				evs = append(evs, trace.Event{Op: trace.OpIsend, Peer: r + 1, Tag: 2, Size: 2048,
					GID: gidSendR, ComputeNS: 15})
				reqs = append(reqs, gidSendR)
			}
			if r > 0 {
				evs = append(evs, trace.Event{Op: trace.OpIrecv, Peer: r - 1, Tag: 2, Size: 2048,
					GID: gidRecvL, ComputeNS: 5})
				reqs = append(reqs, gidRecvL)
			}
			if r < n-1 {
				evs = append(evs, trace.Event{Op: trace.OpIrecv, Peer: r + 1, Tag: 1, Size: 2048,
					GID: gidRecvR, ComputeNS: 5})
				reqs = append(reqs, gidRecvR)
			}
			evs = append(evs, trace.Event{Op: trace.OpWaitall, Peer: trace.NoPeer, Reqs: reqs,
				ComputeNS: float64(10 + (k*3)%40)})
		}
		evs = append(evs, trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer})
		seqs[r] = evs
	}
	return seqs
}

// traceFixture is a named generator of n-rank sequences over iters
// iterations, for table-driven tests.
type traceFixture struct {
	name string
	gen  func(n, iters int) [][]trace.Event
}

// decodedFixture is a real program's trace served through encode/decode
// (the haloSrc exchange), so file-served waits block on their receives.
func decodedFixture(t testing.TB) traceFixture {
	return traceFixture{"decoded", func(n, iters int) [][]trace.Event {
		return decodedSeqs(t, haloSrc(iters), n)
	}}
}
