package bench

// Component-level microbenchmarks for the compression hot paths, shared
// between `go test -bench` (see the wrappers in the repo-root bench_test.go)
// and `cypressbench -benchjson`, which runs them via testing.Benchmark and
// emits machine-readable JSON for trajectory tracking and benchstat-style
// regression comparisons.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blockio"
	"repro/internal/corpus"
	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/encpool"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/simmpi"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// obsSink, when non-nil, is attached to every compressor the bench harness
// builds (ringCTTs, runRanks). It is nil during timed benchmarks — the
// observed pipeline pass behind -benchjson sets it, harvests a report, and
// clears it, so published timings stay sink-off and comparable across PRs.
var obsSink *obs.Sink

// EnableObs attaches s to every pipeline stage the bench harness exercises:
// the package-level sinks (merge, replay, simmpi, encpool, blockio, corpus)
// and the compressors the harness constructs afterwards. Pass nil to detach.
func EnableObs(s *obs.Sink) {
	obsSink = s
	merge.SetObs(s)
	replay.SetObs(s)
	simmpi.SetObs(s)
	encpool.SetObs(s)
	blockio.SetObs(s)
	corpus.SetObs(s)
}

// sink-call opcodes for recorded streams.
const (
	kLoopEnter = iota
	kLoopIter
	kBranchEnter
	kBranchSkip
	kCallEnter
	kStructExit
	kCommSite
	kEvent
	kFinalize
)

type sinkOp struct {
	kind uint8
	site int32
	arm  int8
	ev   trace.Event
}

// SinkStream is one rank's recorded sequence of trace.Sink calls. Replaying
// it into a fresh compressor reproduces the exact instrumentation stream the
// runtime produced, which lets microbenchmarks measure compressor cost in
// isolation from the MPI simulator.
type SinkStream struct {
	ops    []sinkOp
	events int
}

// Events returns the number of MPI events in the stream.
func (s *SinkStream) Events() int { return s.events }

// Replay drives every recorded call into dst. Events are passed as shallow
// copies so dst may canonicalize its copy freely. The copy buffer is hoisted
// out of the loop: passing a loop-local event through the Sink interface
// would heap-allocate one copy per event and drown out the compressor's own
// allocation behavior in microbenchmarks.
func (s *SinkStream) Replay(dst trace.Sink) {
	var evBuf trace.Event
	for i := range s.ops {
		op := &s.ops[i]
		switch op.kind {
		case kLoopEnter:
			dst.LoopEnter(op.site)
		case kLoopIter:
			dst.LoopIter(op.site)
		case kBranchEnter:
			dst.BranchEnter(op.site, op.arm)
		case kBranchSkip:
			dst.BranchSkip(op.site)
		case kCallEnter:
			dst.CallEnter(op.site)
		case kStructExit:
			dst.StructExit()
		case kCommSite:
			dst.CommSite(op.site)
		case kEvent:
			evBuf = op.ev
			dst.Event(&evBuf)
		case kFinalize:
			dst.Finalize()
		}
	}
}

// recorder captures the sink calls of one rank.
type recorder struct{ s SinkStream }

func (r *recorder) LoopEnter(site int32) {
	r.s.ops = append(r.s.ops, sinkOp{kind: kLoopEnter, site: site})
}
func (r *recorder) LoopIter(site int32) {
	r.s.ops = append(r.s.ops, sinkOp{kind: kLoopIter, site: site})
}
func (r *recorder) BranchEnter(site int32, arm int8) {
	r.s.ops = append(r.s.ops, sinkOp{kind: kBranchEnter, site: site, arm: arm})
}
func (r *recorder) BranchSkip(site int32) {
	r.s.ops = append(r.s.ops, sinkOp{kind: kBranchSkip, site: site})
}
func (r *recorder) CallEnter(site int32) {
	r.s.ops = append(r.s.ops, sinkOp{kind: kCallEnter, site: site})
}
func (r *recorder) StructExit() { r.s.ops = append(r.s.ops, sinkOp{kind: kStructExit}) }
func (r *recorder) CommSite(site int32) {
	r.s.ops = append(r.s.ops, sinkOp{kind: kCommSite, site: site})
}
func (r *recorder) Event(e *trace.Event) {
	ev := *e
	if e.Reqs != nil {
		ev.Reqs = append([]int32(nil), e.Reqs...)
	}
	if e.ReqSrcs != nil {
		ev.ReqSrcs = append([]int32(nil), e.ReqSrcs...)
	}
	r.s.ops = append(r.s.ops, sinkOp{kind: kEvent, ev: ev})
	r.s.events++
}
func (r *recorder) Finalize() { r.s.ops = append(r.s.ops, sinkOp{kind: kFinalize}) }

// compileSrc builds the CST for an MPL source string.
func compileSrc(src string) (*lang.Program, *cst.Tree, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("micro: parse: %w", err)
	}
	if _, err := lang.Check(prog); err != nil {
		return nil, nil, fmt.Errorf("micro: check: %w", err)
	}
	irProg, err := ir.Lower(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("micro: lower: %w", err)
	}
	tree, err := cst.Build(irProg)
	if err != nil {
		return nil, nil, fmt.Errorf("micro: cst: %w", err)
	}
	return prog, tree, nil
}

// RecordStream compiles src, runs it on n simulated ranks, and returns the
// CST plus rank 0's recorded sink stream.
func RecordStream(src string, n int) (*cst.Tree, *SinkStream, error) {
	prog, tree, err := compileSrc(src)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]*recorder, n)
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		recs[i] = &recorder{}
		sinks[i] = recs[i]
	}
	if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
		interp.Execute(prog, r)
	}); err != nil {
		return nil, nil, err
	}
	return tree, &recs[0].s, nil
}

// ringSrc exercises the non-blocking hot path: every iteration posts an
// irecv and an isend around the ring and waits on both, so the compressor's
// request table and completion resolution run once per event in steady state.
const ringSrc = `
func main() {
	for var k = 0; k < 256; k = k + 1 {
		var r1 = irecv((rank + size - 1) % size, 4096, 7);
		var r2 = isend((rank + 1) % size, 4096, 7);
		wait(r1);
		wait(r2);
	}
}`

// bcastSrc exercises the pure record-merge fast path: one leaf, repeated
// identical parameters, everything folds into a single run-length record.
const bcastSrc = `
func main() {
	for var k = 0; k < 1024; k = k + 1 {
		bcast(0, 4096);
	}
}`

// stencilSrc produces a few records per leaf with rank-dependent peers, the
// shape the inter-process merge and encoder see in practice.
const stencilSrc = `
func main() {
	for var k = 0; k < 64; k = k + 1 {
		if rank > 0 { var a = irecv(rank - 1, 2048, 3); wait(a); }
		if rank < size - 1 { var b = isend(rank + 1, 2048, 3); wait(b); }
		allreduce(8);
	}
}`

func mustStream(b *testing.B, src string, n int) (*cst.Tree, *SinkStream) {
	b.Helper()
	tree, s, err := RecordStream(src, n)
	if err != nil {
		b.Fatal(err)
	}
	return tree, s
}

// runRanks executes src on n ranks under CYPRESS and returns finished CTTs.
func runRanks(b *testing.B, src string, n int) []*ctt.RankCTT {
	b.Helper()
	prog, tree, err := compileSrc(src)
	if err != nil {
		b.Fatal(err)
	}
	comps := make([]*ctt.Compressor, n)
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		comps[i] = ctt.NewCompressor(tree, i, timestat.ModeMeanStddev)
		comps[i].SetObs(obsSink)
		sinks[i] = comps[i]
	}
	if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
		interp.Execute(prog, r)
	}); err != nil {
		b.Fatal(err)
	}
	out := make([]*ctt.RankCTT, n)
	for i, c := range comps {
		out[i] = c.Finish()
	}
	return out
}

// BenchCompressorEvent measures the full Compressor.Event hot path on a
// mixed non-blocking stream (irecv/isend/wait ring). One op replays the
// whole recorded stream into a fresh compressor.
func BenchCompressorEvent(b *testing.B) { benchCompressorStream(b, ringSrc, 4) }

// BenchCompressorEventObs is BenchCompressorEvent with a live metrics sink
// attached to the compressor. Comparing the pair quantifies the cost of the
// observability layer on the hottest path; the budget is <3% ns/op over the
// sink-off run (the counters are plain atomics behind one nil check).
func BenchCompressorEventObs(b *testing.B) {
	tree, stream := mustStream(b, ringSrc, 4)
	s := obs.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ctt.NewCompressor(tree, 0, timestat.ModeMeanStddev)
		c.SetObs(s)
		stream.Replay(c)
	}
	b.ReportMetric(float64(stream.Events()), "events/op")
}

// markersSrc is LU's wavefront shape on a 4x4 grid: four else-less ifs per
// inner iteration, so rank 0's stream is dominated by BranchEnter/BranchSkip/
// LoopIter markers (two arms taken, two skipped, per sweep step) rather than
// by record folding.
const markersSrc = `
func main() {
	var px = 4;
	var row = rank / px;
	var col = rank % px;
	for var it = 0; it < 8; it = it + 1 {
		for var k = 0; k < 32; k = k + 1 {
			if row > 0 { recv((row - 1) * px + col, 512, 50); }
			if col > 0 { recv(rank - 1, 512, 51); }
			if row < px - 1 { send((row + 1) * px + col, 512, 50); }
			if col < px - 1 { send(rank + 1, 512, 51); }
		}
		for var k = 0; k < 32; k = k + 1 {
			if row < px - 1 { recv((row + 1) * px + col, 512, 52); }
			if col < px - 1 { recv(rank + 1, 512, 53); }
			if row > 0 { send((row - 1) * px + col, 512, 52); }
			if col > 0 { send(rank - 1, 512, 53); }
		}
		allreduce(40);
	}
}`

// wideFanout is the number of comm sites under CompressorEventWide's loop:
// four times the widest vertex of any npb CST at paper scale (Leslie3d, 16).
const wideFanout = 64

// wideSrc puts wideFanout distinct comm sites under one loop vertex and
// visits them in program order, so the cursor's child lookup is paid at every
// position of a wide child list.
var wideSrc = "func main() {\n\tfor var k = 0; k < 64; k = k + 1 {\n" +
	strings.Repeat("\t\tallreduce(8);\n", wideFanout) + "\t}\n}"

// BenchCompressorMarkers measures the structure-marker paths (cursor descent
// and branch reach counting) on a branch- and loop-heavy stream.
func BenchCompressorMarkers(b *testing.B) { benchCompressorStream(b, markersSrc, 16) }

// BenchCompressorEventWide measures Compressor.Event under a parent with
// wideFanout comm-site children.
func BenchCompressorEventWide(b *testing.B) { benchCompressorStream(b, wideSrc, 2) }

// benchCompressorStream replays rank 0's recorded stream of src on n ranks
// into a fresh compressor per op.
func benchCompressorStream(b *testing.B, src string, n int) {
	tree, stream := mustStream(b, src, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ctt.NewCompressor(tree, 0, timestat.ModeMeanStddev)
		stream.Replay(c)
	}
	b.ReportMetric(float64(stream.Events()), "events/op")
}

// BenchRecordMerge measures the run-length record-merge fast path: repeated
// identical events folding into one record.
func BenchRecordMerge(b *testing.B) { benchCompressorStream(b, bcastSrc, 2) }

// BenchMergePair measures the lockstep pairwise CTT merge.
func BenchMergePair(b *testing.B) {
	ctts := runRanks(b, stencilSrc, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merge.Pair(merge.FromRank(ctts[1]), merge.FromRank(ctts[2])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchEncode measures serialization of a merged tree.
func BenchEncode(b *testing.B) {
	ctts := runRanks(b, stencilSrc, 8)
	m, err := merge.All(ctts, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// spmdSrc is the program shape behind the large-rank merge benchmarks: an
// open-chain stencil whose peers are rank-relative constants plus one
// collective. Driven directly (see spmdCTTs), every rank's tree is identical
// modulo the relative peer encoding — the SPMD uniformity the fingerprint
// merge fast path exploits.
const spmdSrc = `
func main() {
	for var k = 0; k < 24; k = k + 1 {
		send(rank + 1, 4096, 7);
		recv(rank + size - 1, 4096, 7);
	}
	allreduce(8);
}`

// spmdCTTs builds n per-rank CTTs by driving each rank's compressor directly
// with a synthetic identical-SPMD event stream — no simulator, so merge
// benchmarks scale to thousands of ranks without drowning setup time in
// goroutine scheduling. Every rank sends to rank+1 and receives from rank-1
// (no wraparound guard: the stream is synthetic), making PeerRel uniformly
// +1/-1 across all ranks.
func spmdCTTs(n, iters int) ([]*ctt.RankCTT, error) {
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
			c.CommSite(int32(sendLeaf.Site))
			ev = trace.Event{Op: trace.OpSend, Peer: r + 1, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1500, ComputeNS: 40}
			c.Event(&ev)
			c.CommSite(int32(recvLeaf.Site))
			ev = trace.Event{Op: trace.OpRecv, Peer: r - 1, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1600, ComputeNS: 55}
			c.Event(&ev)
		}
		c.StructExit()
		c.CommSite(int32(redLeaf.Site))
		ev = trace.Event{Op: trace.OpAllreduce, Peer: trace.NoPeer, Size: 8, ReqID: -1, DurationNS: 2200, ComputeNS: 70}
		c.Event(&ev)
		ev = trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer, ReqID: -1, DurationNS: 90}
		c.Event(&ev)
		c.Finalize()
		out[r] = c.Finish()
	}
	return out, nil
}

// benchMergeAll measures the full parallel binary reduction over n
// identical-SPMD rank trees. All re-wraps the same CTTs each iteration
// (FromRank allocates fresh entry lists); merging only folds time statistics
// into the left operands, so per-iteration work is uniform.
func benchMergeAll(b *testing.B, n int) {
	ctts, err := spmdCTTs(n, 24)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merge.All(ctts, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "ranks/op")
}

// BenchMergeAll256 merges 256 identical-SPMD rank trees.
func BenchMergeAll256(b *testing.B) { benchMergeAll(b, 256) }

// BenchMergeAll1024 merges 1024 identical-SPMD rank trees (the PR 2
// acceptance benchmark).
func BenchMergeAll1024(b *testing.B) { benchMergeAll(b, 1024) }

// BenchMergeAll4096 merges 4096 identical-SPMD rank trees.
func BenchMergeAll4096(b *testing.B) { benchMergeAll(b, 4096) }

// blockedBenchFrame is the frame target of the block-container benchmarks. A
// merged trace is tiny by design, so the default 128KB frame would put the
// whole payload in one frame and the worker sweep would measure nothing; 256
// bytes cuts the 1024-rank SPMD trace into several frames so the encode pool
// actually sees per-frame work.
const blockedBenchFrame = 256

// spmd1024 builds the 1024-rank SPMD merged tree shared by the container
// benchmarks.
func spmd1024(b *testing.B) *merge.Merged {
	b.Helper()
	ctts, err := spmdCTTs(1024, 24)
	if err != nil {
		b.Fatal(err)
	}
	m, err := merge.All(ctts, 0)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchEncodeGzip1024 measures the paper's Cypress+Gzip serialization of the
// 1024-rank SPMD trace — the single-stream baseline the block container
// competes with.
func BenchEncodeGzip1024(b *testing.B) {
	m := spmd1024(b)
	var n int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if n, err = m.EncodeGzip(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "bytes/op")
}

// benchEncodeBlocked measures CYPB container encode of the 1024-rank SPMD
// trace at a fixed frame size and the given worker count; the emitted bytes
// are identical at every worker count, so the sweep isolates the pool's
// coordination cost (and, on multi-core hosts, its speedup).
func benchEncodeBlocked(b *testing.B, workers int) {
	m := spmd1024(b)
	var n int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if n, err = m.EncodeBlockedFrames(io.Discard, workers, blockedBenchFrame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "bytes/op")
}

// BenchEncodeBlocked1024W1 encodes with one inline worker (no goroutines).
func BenchEncodeBlocked1024W1(b *testing.B) { benchEncodeBlocked(b, 1) }

// BenchEncodeBlocked1024W2 encodes with a two-worker pool.
func BenchEncodeBlocked1024W2(b *testing.B) { benchEncodeBlocked(b, 2) }

// BenchEncodeBlocked1024W4 encodes with a four-worker pool.
func BenchEncodeBlocked1024W4(b *testing.B) { benchEncodeBlocked(b, 4) }

// Micro is one registered microbenchmark.
type Micro struct {
	Name  string
	Bench func(b *testing.B)
}

// Micros returns the microbenchmark registry in stable order.
func Micros() []Micro {
	return []Micro{
		{"CompressorEvent", BenchCompressorEvent},
		{"CompressorEventObs", BenchCompressorEventObs},
		{"CompressorMarkers", BenchCompressorMarkers},
		{"CompressorEventWide", BenchCompressorEventWide},
		{"RecordMerge", BenchRecordMerge},
		{"MergePair", BenchMergePair},
		{"Encode", BenchEncode},
		{"MergeAll256", BenchMergeAll256},
		{"MergeAll1024", BenchMergeAll1024},
		{"MergeAll4096", BenchMergeAll4096},
		{"EncodeGzip1024", BenchEncodeGzip1024},
		{"EncodeBlocked1024W1", BenchEncodeBlocked1024W1},
		{"EncodeBlocked1024W2", BenchEncodeBlocked1024W2},
		{"EncodeBlocked1024W4", BenchEncodeBlocked1024W4},
		{"ReplayRank", BenchReplayRank},
		{"Predict256", BenchPredict256},
		{"Predict1024", BenchPredict1024},
		{"Simulate1024W1", BenchSimulate1024W1},
		{"CommMatrix1024", BenchCommMatrix1024},
		{"CorpusIngest1024", BenchCorpusIngest1024},
		{"CorpusBytes1024", BenchCorpusBytes1024},
		{"CorpusGetCold1024", BenchCorpusGetCold1024},
		{"CorpusGetWarm1024", BenchCorpusGetWarm1024},
		{"CorpusPredictCold1024", BenchCorpusPredictCold1024},
		{"CorpusPredictWarm1024", BenchCorpusPredictWarm1024},
		{"DecodeSharded1024", BenchDecodeSharded1024},
		{"DecodeSelect1024Rank1", BenchDecodeSelect1024Rank1},
		{"CorpusGetProjected1024", BenchCorpusGetProjected1024},
		{"ReplayRankProjected1024", BenchReplayRankProjected1024},
		{"ReplayRankFullDecode1024", BenchReplayRankFullDecode1024},
	}
}

// MicroResult is one benchmark outcome in the -benchjson output.
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// RunMicros executes every microbenchmark via testing.Benchmark and returns
// the results.
func RunMicros() []MicroResult {
	out := make([]MicroResult, 0, len(Micros()))
	for _, m := range Micros() {
		r := testing.Benchmark(m.Bench)
		out = append(out, MicroResult{
			Name:        m.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out
}

// MicroEnv records where the benchmarks ran.
type MicroEnv struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	Cores  int    `json:"cores"`
}

// MicroReport is the -benchjson v2 document: a versioned schema wrapping the
// per-benchmark timings (schema v1 was the bare array) plus one observed
// pipeline pass's counter report, so BENCH_*.json files carry fast-path hit
// rates and byte accounting alongside ns/op. Timed benchmarks still run with
// the sink detached; only the separate observation pass pays for counting.
type MicroReport struct {
	SchemaVersion int           `json:"schema_version"`
	Environment   MicroEnv      `json:"environment"`
	Benchmarks    []MicroResult `json:"benchmarks"`
	Obs           *obs.Report   `json:"obs,omitempty"`
}

// observePipeline runs one full compress→merge→encode→decode→replay→simulate
// pass over the 64-rank wraparound ring with every stage reporting into s.
// It restores the detached state before returning.
func observePipeline(s *obs.Sink) error {
	EnableObs(s)
	defer EnableObs(nil)
	ctts, err := ringCTTs(64, 24)
	if err != nil {
		return err
	}
	m, err := merge.All(ctts, 0)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		return err
	}
	if _, err := merge.Decode(&buf); err != nil {
		return err
	}
	if _, err = predictStream(merge.NewStreamer(m), mpisim.DefaultParams()); err != nil {
		return err
	}
	return observeCorpus()
}

// RunMicroReport executes the microbenchmarks (sink-off) and the observed
// pipeline pass, returning the v2 report.
func RunMicroReport() (*MicroReport, error) {
	rep := &MicroReport{
		SchemaVersion: 2,
		Environment:   MicroEnv{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Cores: runtime.NumCPU()},
		Benchmarks:    RunMicros(),
	}
	s := obs.New()
	if err := observePipeline(s); err != nil {
		return nil, err
	}
	rep.Obs = s.Report()
	return rep, nil
}

// WriteMicroJSON runs every microbenchmark plus the observed pipeline pass
// and writes the v2 JSON report.
func WriteMicroJSON(w io.Writer) error {
	rep, err := RunMicroReport()
	if err != nil {
		return err
	}
	return WriteMicroReport(w, rep)
}

// WriteMicroReport writes an already-computed report as indented JSON.
func WriteMicroReport(w io.Writer, rep *MicroReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
