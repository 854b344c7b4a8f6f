package bench

// Selective-decode microbenchmarks: the PR acceptance pair is
// DecodeSharded1024 (full decode) vs DecodeSelect1024Rank1 (rank-projected
// decode of the same encoding), which must show the >=3x reduction in both
// decoded payload bytes/op and allocs/op that projection pushdown promises
// for single-rank serving.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// shardedCTTs builds n per-rank CTTs over the spmd stencil shape but with
// per-rank-distinct message sizes, so no two ranks' comm records are
// compatible and the merged tree keeps one entry per rank at every comm
// vertex. This is the sharded regime where a rank projection has real work
// to skip — the spmdCTTs fixture merges to one entry spanning all ranks,
// which a projection must materialize anyway.
func shardedCTTs(n, iters int) ([]*ctt.RankCTT, error) {
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
		return nil, fmt.Errorf("micro: spmd tree missing vertices")
	}
	out := make([]*ctt.RankCTT, n)
	var ev trace.Event
	for r := 0; r < n; r++ {
		c := ctt.NewCompressor(tree, r, timestat.ModeMeanStddev)
		ev = trace.Event{Op: trace.OpInit, Peer: trace.NoPeer, ReqID: -1, DurationNS: 120, ComputeNS: 10}
		c.Event(&ev)
		c.LoopEnter(int32(loop.Site))
		for k := 0; k < iters; k++ {
			c.LoopIter(int32(loop.Site))
			// The tag cycles across iterations, so each leaf holds several
			// distinct comm records per rank — the multi-record payload shape
			// real sites produce — all of it skippable under a projection.
			c.CommSite(int32(sendLeaf.Site))
			ev = trace.Event{Op: trace.OpSend, Peer: r + 1, Size: 4096 + r, Tag: k % 8, ReqID: -1, DurationNS: 1500, ComputeNS: 40}
			c.Event(&ev)
			c.CommSite(int32(recvLeaf.Site))
			ev = trace.Event{Op: trace.OpRecv, Peer: r - 1, Size: 4096 + r, Tag: k % 8, ReqID: -1, DurationNS: 1600, ComputeNS: 55}
			c.Event(&ev)
		}
		c.StructExit()
		c.CommSite(int32(redLeaf.Site))
		ev = trace.Event{Op: trace.OpAllreduce, Peer: trace.NoPeer, Size: 8 + r, ReqID: -1, DurationNS: 2200, ComputeNS: 70}
		c.Event(&ev)
		ev = trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer, ReqID: -1, DurationNS: 90}
		c.Event(&ev)
		c.Finalize()
		out[r] = c.Finish()
	}
	return out, nil
}

// The sharded 1024-rank fixture is expensive to merge (one entry per rank
// per comm vertex), so both encodings are built once per process and shared
// by every selective-decode benchmark.
var (
	shardedOnce    sync.Once
	shardedPlain   []byte
	shardedIndexed []byte
	shardedErr     error
)

func shardedEncodings(b *testing.B) (plain, indexed []byte) {
	b.Helper()
	shardedOnce.Do(func() {
		ctts, err := shardedCTTs(1024, 24)
		if err != nil {
			shardedErr = err
			return
		}
		m, err := merge.All(ctts, 0)
		if err != nil {
			shardedErr = err
			return
		}
		var pb, ib bytes.Buffer
		if _, err := m.Encode(&pb); err != nil {
			shardedErr = err
			return
		}
		if _, err := m.EncodeIndexed(&ib); err != nil {
			shardedErr = err
			return
		}
		shardedPlain, shardedIndexed = pb.Bytes(), ib.Bytes()
	})
	if shardedErr != nil {
		b.Fatal(shardedErr)
	}
	return shardedPlain, shardedIndexed
}

// selPayloadBytes reports the payload-byte economics of decoding enc under
// sel, via one observed selective pass outside the timed loop.
func selPayloadBytes(b *testing.B, enc []byte, sel merge.Selection) (materialized, skipped int64) {
	b.Helper()
	s := obs.New()
	merge.SetObs(s)
	defer merge.SetObs(obsSink) // restore whatever the harness had attached
	if _, err := merge.DecodeSelectAuto(enc, sel, 1); err != nil {
		b.Fatal(err)
	}
	if s.Value(obs.SelFallbacks) != 0 {
		b.Fatal("selective decode of the bench fixture fell back to a full decode")
	}
	return s.Value(obs.SelBytesMaterialized), s.Value(obs.SelBytesSkipped)
}

// BenchDecodeSharded1024 is the full-decode baseline over the sharded
// 1024-rank encoding: every rank's payload sections are materialized. The
// payload_bytes/op metric is the total payload volume, measured once via an
// all-ranks selective pass.
func BenchDecodeSharded1024(b *testing.B) {
	plain, _ := shardedEncodings(b)
	mat, skip := selPayloadBytes(b, plain, merge.SelectAll())
	if skip != 0 {
		b.Fatal("SelectAll skipped payload sections")
	}
	var rd bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(plain)
		if _, err := merge.Decode(&rd); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mat), "payload_bytes/op")
}

// BenchDecodeSelect1024Rank1 decodes the same sharded 1024-rank encoding
// with a single-rank projection, cross-checked against the CYPI section
// index: structure decodes fully, rank 1's payload sections materialize, the
// other ~1023/1024 of the payload volume is walked for framing only.
func BenchDecodeSelect1024Rank1(b *testing.B) {
	_, indexed := shardedEncodings(b)
	sel := merge.SelectRanks(1)
	mat, skip := selPayloadBytes(b, indexed, sel)
	if skip == 0 {
		b.Fatal("rank projection skipped nothing; fixture is not sharded")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merge.DecodeSelectAuto(indexed, sel, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mat), "payload_bytes/op")
}

// BenchCorpusGetProjected1024 measures a cache-disabled rank-projected get:
// reconstruct the encoding, decode it selectively for one rank. The
// comparison baseline is CorpusGetCold1024's full decode.
func BenchCorpusGetProjected1024(b *testing.B) {
	plain, _ := shardedEncodings(b)
	st, h := corpusWith(b, -1, plain)
	defer st.Close()
	ranks := []int{1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := st.GetProjected(h, ranks)
		if err != nil {
			b.Fatal(err)
		}
		tr.Release()
	}
}

// benchReplayRank1024 serves one rank end to end per op — decode the trace,
// then stream-replay the rank — through either the projected or the full
// decode path. This is the query-sliced serving shape the projection exists
// for: decode cost should scale with the slice served, not the trace.
func benchReplayRank1024(b *testing.B, projected bool) {
	plain, indexed := shardedEncodings(b)
	sel := merge.SelectRanks(1)
	var rd bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m *merge.Merged
		var err error
		if projected {
			m, err = merge.DecodeSelectAuto(indexed, sel, 1)
		} else {
			rd.Reset(plain)
			m, err = merge.Decode(&rd)
		}
		if err != nil {
			b.Fatal(err)
		}
		events := 0
		if err := merge.NewStreamer(m).Replay(1, func(*trace.Event) { events++ }); err != nil {
			b.Fatal(err)
		}
		if events == 0 {
			b.Fatal("rank 1 replayed no events")
		}
	}
}

// BenchReplayRankProjected1024 serves rank 1 of the sharded 1024-rank trace
// through the rank-projected decode.
func BenchReplayRankProjected1024(b *testing.B) { benchReplayRank1024(b, true) }

// BenchReplayRankFullDecode1024 serves rank 1 through a full decode — the
// pre-projection serving cost, kept as the regression baseline.
func BenchReplayRankFullDecode1024(b *testing.B) { benchReplayRank1024(b, false) }
