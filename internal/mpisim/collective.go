package mpisim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/trace"
)

// collSync synchronizes collectives: every rank in the world communicator
// must call the same collective with the same root and size; a mismatched
// call panics its rank, which in real MPI would deadlock or corrupt data.
type collSync struct {
	mu      sync.Mutex
	arrived int
	op      trace.Op
	root    int
	size    int
	maxNow  float64
	finish  float64
}

// enter parks rank r until all ranks join the collective and returns the
// common finish time of the operation. The last to join wakes the rest.
func (c *collSync) enter(r *Rank, op trace.Op, root, size int) float64 {
	c.mu.Lock()
	if c.arrived == 0 {
		c.op, c.root, c.size = op, root, size
	} else if c.op != op || c.root != root || c.size != size {
		defer c.mu.Unlock()
		panic(fmt.Sprintf("mpisim: collective mismatch: rank %d called %v(root=%d,size=%d) while others called %v(root=%d,size=%d)",
			r.id, op, root, size, c.op, c.root, c.size))
	}
	c.arrived++
	c.maxNow = math.Max(c.maxNow, r.nowNS)
	if c.arrived < r.rt.n {
		r.mu.Lock()
		defer r.mu.Unlock()
		c.mu.Unlock()
		r.park(forColl, 0, 0)
		return c.finish
	}
	defer c.mu.Unlock()
	c.finish = c.maxNow + CollectiveCostNS(r.rt.params, r.rt.n, op, size)
	c.arrived = 0
	c.maxNow = 0
	for _, w := range r.rt.ranks {
		if w != r {
			w.mu.Lock()
			w.wake()
			w.mu.Unlock()
		}
	}
	return c.finish
}

// CollectiveCostNS is the shared binomial-tree LogGP cost model for
// collective operations (paper Section V cites [23] for decomposing
// collectives into point-to-point operations); the SIM-MPI replay simulator
// uses the same formulas so predictions are model-consistent with the
// synthetic "measurements".
func CollectiveCostNS(p Params, nRanks int, op trace.Op, size int) float64 {
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

// collective runs the synchronization and advances the local clock with
// per-rank jitter.
func (r *Rank) collective(op trace.Op, root, size int) {
	finish := r.rt.coll.enter(r, op, root, size)
	r.seq++
	r.nowNS = finish + (finish-r.nowNS)*(r.rt.params.noise(r.id, r.seq)-1)
	if r.nowNS < finish {
		r.nowNS = finish
	}
}

func (r *Rank) rootedCollective(op trace.Op, root, size int) {
	r.checkPeer(root, false)
	start := r.nowNS
	r.collective(op, root, size)
	r.emit(&trace.Event{Op: op, Size: size, Peer: root, ReqID: -1}, start)
}

func (r *Rank) rootlessCollective(op trace.Op, size int) {
	start := r.nowNS
	r.collective(op, 0, size)
	r.emit(&trace.Event{Op: op, Size: size, Peer: trace.NoPeer, ReqID: -1}, start)
}

// Barrier synchronizes all ranks.
func (r *Rank) Barrier() { r.rootlessCollective(trace.OpBarrier, 0) }

// Bcast broadcasts size bytes from root.
func (r *Rank) Bcast(root, size int) { r.rootedCollective(trace.OpBcast, root, size) }

// Reduce reduces size bytes to root.
func (r *Rank) Reduce(root, size int) { r.rootedCollective(trace.OpReduce, root, size) }

// Allreduce reduces size bytes to all ranks.
func (r *Rank) Allreduce(size int) { r.rootlessCollective(trace.OpAllreduce, size) }

// Gather gathers size bytes per rank to root.
func (r *Rank) Gather(root, size int) { r.rootedCollective(trace.OpGather, root, size) }

// Scatter scatters size bytes per rank from root.
func (r *Rank) Scatter(root, size int) { r.rootedCollective(trace.OpScatter, root, size) }

// Allgather gathers size bytes per rank to all ranks.
func (r *Rank) Allgather(size int) { r.rootlessCollective(trace.OpAllgather, size) }

// Alltoall exchanges size bytes between every pair of ranks.
func (r *Rank) Alltoall(size int) { r.rootlessCollective(trace.OpAlltoall, size) }
