// Package trace defines the communication event model shared by the MPI
// runtime, all compressors, the replay engine, and the LogGP simulator.
//
// An Event is what the PMPI interposition layer observes for one MPI call:
// operation, message size, peer, tag, communicator, the CST vertex GID of the
// call site (CYPRESS only), request linkage for non-blocking operations, and
// the elapsed time of the call.
package trace

import "fmt"

// Op enumerates the MPI operations the runtime supports.
type Op uint8

const (
	OpNone Op = iota
	OpSend
	OpRecv
	OpIsend
	OpIrecv
	OpWait
	OpWaitall
	OpWaitsome
	OpTestsome
	OpTestany
	OpBarrier
	OpBcast
	OpReduce
	OpAllreduce
	OpGather
	OpScatter
	OpAllgather
	OpAlltoall
	OpInit
	OpFinalize
	numOps
)

var opNames = [...]string{
	OpNone:      "None",
	OpSend:      "Send",
	OpRecv:      "Recv",
	OpIsend:     "Isend",
	OpIrecv:     "Irecv",
	OpWait:      "Wait",
	OpWaitall:   "Waitall",
	OpWaitsome:  "Waitsome",
	OpTestsome:  "Testsome",
	OpTestany:   "Testany",
	OpBarrier:   "Barrier",
	OpBcast:     "Bcast",
	OpReduce:    "Reduce",
	OpAllreduce: "Allreduce",
	OpGather:    "Gather",
	OpScatter:   "Scatter",
	OpAllgather: "Allgather",
	OpAlltoall:  "Alltoall",
	OpInit:      "Init",
	OpFinalize:  "Finalize",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return "MPI_" + opNames[o]
	}
	return fmt.Sprintf("MPI_Op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o > OpNone && o < numOps }

// IsPointToPoint reports whether the operation names a single peer.
func (o Op) IsPointToPoint() bool {
	switch o {
	case OpSend, OpRecv, OpIsend, OpIrecv:
		return true
	}
	return false
}

// IsNonBlocking reports whether the operation returns a request handle.
func (o Op) IsNonBlocking() bool { return o == OpIsend || o == OpIrecv }

// IsCompletion reports whether the operation completes request handles.
func (o Op) IsCompletion() bool {
	switch o {
	case OpWait, OpWaitall, OpWaitsome, OpTestsome, OpTestany:
		return true
	}
	return false
}

// IsCollective reports whether the operation involves the whole communicator.
func (o Op) IsCollective() bool {
	switch o {
	case OpBarrier, OpBcast, OpReduce, OpAllreduce, OpGather, OpScatter,
		OpAllgather, OpAlltoall:
		return true
	}
	return false
}

// IsSendLike reports whether the op moves payload away from this rank
// (used when building communication-volume matrices).
func (o Op) IsSendLike() bool { return o == OpSend || o == OpIsend }

// OpByName maps an MPL communication intrinsic name to its operation.
// It returns OpNone for unknown names.
func OpByName(name string) Op {
	switch name {
	case "send":
		return OpSend
	case "recv":
		return OpRecv
	case "isend":
		return OpIsend
	case "irecv":
		return OpIrecv
	case "wait":
		return OpWait
	case "waitall":
		return OpWaitall
	case "waitsome":
		return OpWaitsome
	case "testany":
		return OpTestany
	case "barrier":
		return OpBarrier
	case "bcast":
		return OpBcast
	case "reduce":
		return OpReduce
	case "allreduce":
		return OpAllreduce
	case "gather":
		return OpGather
	case "scatter":
		return OpScatter
	case "allgather":
		return OpAllgather
	case "alltoall":
		return OpAlltoall
	}
	return OpNone
}

// AnySource is the wildcard source value for receives (MPI_ANY_SOURCE).
const AnySource = -1

// NoPeer marks events without a peer (collectives use Root instead).
const NoPeer = -2

// Event is a single observed MPI call on one rank.
type Event struct {
	Op   Op
	Size int   // payload bytes (message size, or per-rank size for collectives)
	Peer int   // source/dest rank for p2p, root rank for rooted collectives, NoPeer otherwise
	Tag  int   // message tag, 0 for collectives
	Comm int   // communicator id (0 = world)
	GID  int32 // CST vertex id of the call site; -1 only on raw, uninstrumented events, never on a replayed one (see ctt.CommRecord)

	// Wildcard is set on receives posted with AnySource; Peer then holds the
	// actual matched source (resolved at completion for non-blocking ops).
	Wildcard bool

	// ReqID is the rank-local sequence number of the request returned by a
	// non-blocking operation, -1 otherwise. Request numbers are excluded from
	// SameParams: they grow monotonically, and the compressors re-encode
	// them (CYPRESS maps them to poster GIDs, per the paper; the baselines
	// use relative offsets).
	ReqID int32

	// Reqs holds, for completion operations, identifiers of the requests
	// that completed here, in completion order. In raw traces these are
	// ReqID values; the CYPRESS compressor rewrites them to poster GIDs.
	Reqs []int32

	// ReqSrcs holds, parallel to Reqs, the matched source rank of each
	// completed receive (resolving wildcards); -1 entries mark completed
	// sends, which need no resolution. nil when no completion carried a
	// receive.
	ReqSrcs []int32

	// DurationNS is the elapsed time of the call in nanoseconds.
	DurationNS float64

	// ComputeNS is the compute time elapsed on this rank since the previous
	// MPI call; the replay simulator uses it to advance the local clock.
	ComputeNS float64
}

// SameParams reports whether two events are mergeable from the compressor's
// point of view: identical in everything except time. This is the equality
// CYPRESS uses when comparing an incoming operation with the last record of
// the same CTT vertex (paper: "all but the communication time").
func (e *Event) SameParams(o *Event) bool {
	return e.Peer == o.Peer && e.SameParamsExceptPeer(o)
}

// SameParamsExceptPeer is SameParams with the peer excluded, used by the
// CYPRESS leaf compressor to detect records that differ only in their
// communication partner (peer-pattern folding). Like SameParams it only
// reads both events; the receiver is usually a stored record.
func (e *Event) SameParamsExceptPeer(o *Event) bool {
	if e.Op != o.Op || e.Size != o.Size ||
		e.Tag != o.Tag || e.Comm != o.Comm || e.Wildcard != o.Wildcard ||
		len(e.Reqs) != len(o.Reqs) || len(e.ReqSrcs) != len(o.ReqSrcs) {
		return false
	}
	for i := range e.Reqs {
		if e.Reqs[i] != o.Reqs[i] {
			return false
		}
	}
	for i := range e.ReqSrcs {
		if e.ReqSrcs[i] != o.ReqSrcs[i] {
			return false
		}
	}
	return true
}

func (e Event) String() string {
	s := e.Op.String()
	switch {
	case e.Op.IsPointToPoint():
		s += fmt.Sprintf("(peer=%d size=%d tag=%d)", e.Peer, e.Size, e.Tag)
	case e.Op.IsCollective() && e.Peer != NoPeer:
		s += fmt.Sprintf("(root=%d size=%d)", e.Peer, e.Size)
	case e.Op.IsCompletion():
		s += fmt.Sprintf("(reqs=%v)", e.Reqs)
	}
	return s
}
