// Package tracetest holds what the tests that hold the trace-driven
// simulator to the live runtime's clock share. Only tests import it.
package tracetest

import (
	"slices"

	"repro/internal/trace"
)

// KeyRaw returns a copy of a live run's raw per-rank event streams keyed the
// way the compressor keys a trace: each Irecv's GID is its request id, which
// is what the completions' Reqs name, and a wildcard Irecv's peer is the
// source that its completion's ReqSrcs names.
func KeyRaw(raw [][]trace.Event) [][]trace.Event {
	keyed := make([][]trace.Event, len(raw))
	for rank, evs := range raw {
		seq := slices.Clone(evs)
		irecvs := map[int32]int{} // request id → index of its Irecv in seq
		for i := range seq {
			e := &seq[i]
			if e.Op == trace.OpIrecv {
				e.GID = e.ReqID
				irecvs[e.ReqID] = i
			}
			for j, src := range e.ReqSrcs {
				if k, ok := irecvs[e.Reqs[j]]; ok && seq[k].Wildcard {
					seq[k].Peer = int(src)
				}
			}
		}
		keyed[rank] = seq
	}
	return keyed
}
