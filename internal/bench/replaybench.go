package bench

// Decompression-side microbenchmarks (paper Section V): streaming replay
// through resolved views and shared skeletons, and the trace-driven LogGP
// prediction pipeline built on it.

import (
	"fmt"
	"testing"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/replay"
	"repro/internal/simmpi"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// ringCTTs builds n per-rank CTTs for a wraparound ring by driving each
// compressor directly, like spmdCTTs but with peers taken modulo n: every
// recv has a matching send, so the merged trace is simulatable under simmpi,
// and the wraparound edges split the ranks into three rank groups (interior,
// rank 0, rank n-1) that differ in peer only, so one replay class — the
// realistic SPMD shape for streaming replay benchmarks.
func ringCTTs(n, iters int) ([]*ctt.RankCTT, error) {
	return ringCTTsOff(n, iters, 0)
}

// ringCTTsOff is ringCTTs with every duration shifted by offNS — distinct
// offsets model repeated runs of the same workload on slightly different
// machines (identical structure, shifted timing payload), the input shape
// the corpus benchmarks dedup across.
func ringCTTsOff(n, iters int, offNS int64) ([]*ctt.RankCTT, error) {
	_, tree, err := compileSrc(spmdSrc)
	if err != nil {
		return nil, err
	}
	var loop, sendLeaf, recvLeaf, redLeaf *cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		switch {
		case loop == nil && v.Kind == cst.KindLoop:
			loop = v
		case sendLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpSend:
			sendLeaf = v
		case recvLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpRecv:
			recvLeaf = v
		case redLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpAllreduce:
			redLeaf = v
		}
	})
	if loop == nil || sendLeaf == nil || recvLeaf == nil || redLeaf == nil {
		return nil, fmt.Errorf("micro: ring tree missing vertices")
	}
	out := make([]*ctt.RankCTT, n)
	var ev trace.Event
	for r := 0; r < n; r++ {
		c := ctt.NewCompressor(tree, r, timestat.ModeMeanStddev)
		c.SetObs(obsSink)
		ev = trace.Event{Op: trace.OpInit, Peer: trace.NoPeer, ReqID: -1, DurationNS: 120 + float64(offNS), ComputeNS: 10}
		c.Event(&ev)
		c.LoopEnter(int32(loop.Site))
		for k := 0; k < iters; k++ {
			c.LoopIter(int32(loop.Site))
			c.CommSite(int32(sendLeaf.Site))
			ev = trace.Event{Op: trace.OpSend, Peer: (r + 1) % n, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1500 + float64(offNS), ComputeNS: 40}
			c.Event(&ev)
			c.CommSite(int32(recvLeaf.Site))
			ev = trace.Event{Op: trace.OpRecv, Peer: (r + n - 1) % n, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1600 + float64(offNS), ComputeNS: 55}
			c.Event(&ev)
		}
		c.StructExit()
		c.CommSite(int32(redLeaf.Site))
		ev = trace.Event{Op: trace.OpAllreduce, Peer: trace.NoPeer, Size: 8, ReqID: -1, DurationNS: 2200 + float64(offNS), ComputeNS: 70}
		c.Event(&ev)
		ev = trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer, ReqID: -1, DurationNS: 90 + float64(offNS)}
		c.Event(&ev)
		c.Finalize()
		out[r] = c.Finish()
	}
	return out, nil
}

// mergedRing returns the merged trace of an n-rank wraparound ring.
func mergedRing(b *testing.B, n, iters int) *merge.Merged {
	b.Helper()
	ctts, err := ringCTTs(n, iters)
	if err != nil {
		b.Fatal(err)
	}
	m, err := merge.All(ctts, 0)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchReplayRank measures steady-state single-rank decompression through
// the streaming replayer: skeletons are memoized during setup, so each op is
// a flat scan over the rank's shared skeleton with O(1) accessors.
func BenchReplayRank(b *testing.B) {
	m := mergedRing(b, 1024, 24)
	s := merge.NewStreamer(m)
	if err := s.Prepare(0); err != nil {
		b.Fatal(err)
	}
	sink := func(*trace.Event) {}
	events := perRankEvents(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Replay(i%1024, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(events, "events/op")
}

// perRankEvents reports the mean decompressed events per rank, for the
// events/op metric.
func perRankEvents(m *merge.Merged) float64 {
	return float64(m.EventCount) / float64(m.NumRanks)
}

// predictStream is the streaming prediction pipeline end to end from a
// streamer: skeleton preparation (parallel), one pull cursor per rank, and
// the LogGP simulation — nothing materialized.
func predictStream(s *merge.Streamer, params mpisim.Params) (simmpi.Result, error) {
	if err := s.Prepare(0); err != nil {
		return simmpi.Result{}, err
	}
	srcs := make([]simmpi.EventSource, s.NumRanks())
	for rank := range srcs {
		cur, err := s.Cursor(rank)
		if err != nil {
			return simmpi.Result{}, err
		}
		srcs[rank] = cur
	}
	return simmpi.SimulateStreamPar(srcs, params, 1)
}

// benchPredict measures predictStream per op, from a fresh streamer over the
// merged tree.
func benchPredict(b *testing.B, n int) {
	m := mergedRing(b, n, 24)
	params := mpisim.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predictStream(merge.NewStreamer(m), params); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "ranks/op")
}

// BenchPredict256 predicts a 256-rank ring from the merged trace.
func BenchPredict256(b *testing.B) { benchPredict(b, 256) }

// BenchPredict1024 predicts a 1024-rank ring from the merged trace (the PR 3
// acceptance benchmark).
func BenchPredict1024(b *testing.B) { benchPredict(b, 1024) }

// benchSimulate isolates the LogGP engine from skeleton preparation: cursors
// are prepared once and rewound every op, so the measured loop is purely the
// simulator's event processing and matching.
func benchSimulate(b *testing.B, n int) {
	m := mergedRing(b, n, 24)
	s := merge.NewStreamer(m)
	if err := s.Prepare(0); err != nil {
		b.Fatal(err)
	}
	curs := make([]*replay.Cursor, n)
	srcs := make([]simmpi.EventSource, n)
	for rank := range curs {
		cur, err := s.Cursor(rank)
		if err != nil {
			b.Fatal(err)
		}
		curs[rank] = cur
		srcs[rank] = cur
	}
	params := mpisim.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range curs {
			c.Rewind()
		}
		if _, err := simmpi.SimulateStreamPar(srcs, params, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "ranks/op")
}

// BenchSimulate1024W1 runs the engine-only 1024-rank simulation. The name
// keeps its W1 suffix so the series stays comparable across BENCH_pr files.
func BenchSimulate1024W1(b *testing.B) { benchSimulate(b, 1024) }

// BenchCommMatrix1024 accumulates the 1024-rank send-volume matrix through
// the parallel streaming fan-out (ReplayAll, one row per rank, in-flight).
func BenchCommMatrix1024(b *testing.B) {
	const n = 1024
	m := mergedRing(b, n, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat := make([][]int64, n)
		rows := make([]int64, n*n)
		for r := range mat {
			mat[r] = rows[r*n : (r+1)*n]
		}
		s := merge.NewStreamer(m)
		err := s.ReplayAll(0, func(rank int, e *trace.Event) {
			if e.Op.IsSendLike() && e.Peer >= 0 && e.Peer < n {
				mat[rank][e.Peer] += int64(e.Size)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "ranks/op")
}
