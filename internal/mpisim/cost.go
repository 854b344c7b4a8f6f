package mpisim

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// This file is the cost table: every LogGP formula the live runtime charges,
// and the only reader of L, o and G. simmpi prices a replayed trace with the
// same methods, passing noise 1, so simulating a run's raw streams at
// NoiseFrac 0 reproduces its clock exactly (DESIGN.md §8, "Cost table").

// Params is the synthetic communication cost model (LogGP: latency L,
// per-message overhead o, per-byte gap G) plus a deterministic noise term.
type Params struct {
	LatencyNS    float64 // L: wire latency per message
	OverheadNS   float64 // o: CPU overhead per send/recv posting
	GapPerByteNS float64 // G: per-byte cost
	NoiseFrac    float64 // +-fraction of deterministic pseudo-noise per op
}

// DefaultParams models a QDR-InfiniBand-class network, the paper's testbed
// fabric: ~1.5us latency, ~3GB/s effective per-byte cost.
func DefaultParams() Params {
	return Params{LatencyNS: 1500, OverheadNS: 400, GapPerByteNS: 0.33, NoiseFrac: 0.02}
}

// InjectNS is the sender's cost of injecting one message of size bytes:
// o + G·size. Like every method here, it is the cost table's one copy of
// its formula; neither engine writes it out.
func (p Params) InjectNS(size int, noise float64) float64 {
	return (p.OverheadNS + p.GapPerByteNS*float64(size)) * noise
}

// ArrivalNS is when a message whose injection ended at sentNS is visible at
// its receiver: one latency later.
func (p Params) ArrivalNS(sentNS float64) float64 { return sentNS + p.LatencyNS }

// IrecvPostNS is the cost of posting a non-blocking receive: o/2. Its
// completion adds nothing but the wait (WaitDoneNS).
func (p Params) IrecvPostNS(noise float64) float64 { return p.OverheadNS * noise / 2 }

// RecvDoneNS is the clock after a blocking receive entered at nowNS takes a
// message visible at availNS: max(now + o, avail).
func (p Params) RecvDoneNS(nowNS, availNS, noise float64) float64 {
	return math.Max(nowNS+p.OverheadNS*noise, availNS)
}

// WaitDoneNS is the clock after a completion at nowNS takes a message
// visible at availNS: the wait for the message and nothing more.
func (Params) WaitDoneNS(nowNS, availNS float64) float64 { return math.Max(nowNS, availNS) }

// CollectiveCostNS is the cost table's binomial-tree cost of one collective
// over nRanks (paper Section V cites [23] for decomposing collectives into
// point-to-point operations), charged after the last rank arrives.
func (p Params) CollectiveCostNS(nRanks int, op trace.Op, size int) float64 {
	n := float64(nRanks)
	logn := math.Ceil(math.Log2(math.Max(n, 2)))
	perMsg := p.OverheadNS + p.LatencyNS + p.GapPerByteNS*float64(size)
	switch op {
	case trace.OpBarrier, trace.OpFinalize:
		return 2*p.LatencyNS + p.OverheadNS*logn
	case trace.OpBcast, trace.OpReduce, trace.OpScatter, trace.OpGather:
		return logn * perMsg
	case trace.OpAllreduce:
		return 2 * logn * perMsg
	case trace.OpAllgather:
		return (n-1)*(p.OverheadNS+p.GapPerByteNS*float64(size)) + logn*p.LatencyNS
	case trace.OpAlltoall:
		return (n-1)*(p.OverheadNS+p.GapPerByteNS*float64(size)) + p.LatencyNS
	}
	panic(fmt.Sprintf("mpisim: no cost model for %v", op))
}

// noise returns a deterministic pseudo-random factor in [1-f, 1+f] derived
// from (rank, seq) with a splitmix64 hash, keeping runs reproducible without
// math/rand global state.
func (p Params) noise(rank int, seq uint64) float64 {
	if p.NoiseFrac == 0 {
		return 1
	}
	x := uint64(rank+1)*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53) // [0,1)
	return 1 + p.NoiseFrac*(2*u-1)
}
