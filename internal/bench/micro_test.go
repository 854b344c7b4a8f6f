package bench

// Compressor microbenchmarks: the six rows no ledger metric separates (the
// per-event cost on mixed, marker-bound, wide and folding streams, the cost
// of an attached sink, and one lockstep pairwise merge). Everything the
// pipeline does end to end is timed by the ledger in benchmark/.
//
//	go test -bench . -benchmem ./internal/bench/

import (
	"strings"
	"testing"

	cypress "repro"
	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/obs"
	"repro/internal/timestat"
	"repro/internal/trace"
)

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

// sinkStream is one rank's recorded sequence of trace.Sink calls. Replaying
// it into a fresh compressor reproduces the exact instrumentation stream the
// runtime produced, which measures compressor cost in isolation from the MPI
// simulator.
type sinkStream struct {
	ops    []sinkOp
	events int
}

// replay drives every recorded call into dst. Events are passed as shallow
// copies so dst may canonicalize its copy freely. The copy buffer is hoisted
// out of the loop: passing a loop-local event through the Sink interface
// would heap-allocate one copy per event and drown out the compressor's own
// allocation behavior.
func (s *sinkStream) replay(dst trace.Sink) {
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
type recorder struct{ s sinkStream }

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

// recordStream compiles src, runs it on n simulated ranks, and returns the
// CST plus rank 0's recorded sink stream.
func recordStream(b *testing.B, src string, n int) (*cst.Tree, *sinkStream) {
	tree, streams := recordStreams(b, src, n)
	return tree, streams[0]
}

// recordStreams compiles src, runs it on n simulated ranks, and returns the
// CST plus every rank's recorded sink stream.
func recordStreams(tb testing.TB, src string, n int) (*cst.Tree, []*sinkStream) {
	tb.Helper()
	p, err := cypress.Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]*recorder, n)
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		recs[i] = &recorder{}
		sinks[i] = recs[i]
	}
	if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
		interp.Execute(p.AST, r)
	}); err != nil {
		tb.Fatal(err)
	}
	streams := make([]*sinkStream, n)
	for i, r := range recs {
		streams[i] = &r.s
	}
	return p.CST, streams
}

// isendRingSrc exercises the non-blocking hot path: every iteration posts an
// irecv and an isend around the ring and waits on both, so the compressor's
// request table and completion resolution run once per event in steady state.
const isendRingSrc = `
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
// shape the inter-process merge sees in practice.
const stencilSrc = `
func main() {
	for var k = 0; k < 64; k = k + 1 {
		if rank > 0 { var a = irecv(rank - 1, 2048, 3); wait(a); }
		if rank < size - 1 { var b = isend(rank + 1, 2048, 3); wait(b); }
		allreduce(8);
	}
}`

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

// benchCompressorStream replays rank 0's recorded stream of src on n ranks
// into a fresh compressor per op, with s (nil = none) attached.
func benchCompressorStream(b *testing.B, src string, n int, s *obs.Sink) {
	tree, stream := recordStream(b, src, n)
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ctt.NewCompressor(tree, 0, timestat.ModeMeanStddev)
		stream.replay(c)
	}
	b.ReportMetric(float64(stream.events), "events/op")
}

// BenchmarkCompressorEvent measures the full Compressor.Event hot path on a
// mixed non-blocking stream (irecv/isend/wait ring). It is the steady-state
// tracing-overhead guard beside the AllocsPerRun tests in internal/ctt.
func BenchmarkCompressorEvent(b *testing.B) { benchCompressorStream(b, isendRingSrc, 4, nil) }

// BenchmarkCompressorEventObs is BenchmarkCompressorEvent with a live metrics
// sink attached. The delta between the pair is the cost of the observability
// layer on the hottest path: budget < 3% ns/op and identical allocs/op (the
// counters are plain atomics behind one nil check).
func BenchmarkCompressorEventObs(b *testing.B) {
	benchCompressorStream(b, isendRingSrc, 4, obs.New())
}

// BenchmarkCompressorMarkers measures the structure-marker paths (cursor
// descent and branch reach counting) on a branch- and loop-heavy stream.
func BenchmarkCompressorMarkers(b *testing.B) { benchCompressorStream(b, markersSrc, 16, nil) }

// BenchmarkCompressorEventWide measures Compressor.Event under a parent with
// wideFanout comm-site children.
func BenchmarkCompressorEventWide(b *testing.B) { benchCompressorStream(b, wideSrc, 2, nil) }

// BenchmarkRecordMerge measures the run-length record-merge fast path:
// repeated identical events folding into one record.
func BenchmarkRecordMerge(b *testing.B) { benchCompressorStream(b, bcastSrc, 2, nil) }

// BenchmarkMergePair measures the lockstep pairwise CTT merge of two interior
// ranks of the stencil.
func BenchmarkMergePair(b *testing.B) {
	p, err := cypress.Compile(stencilSrc)
	if err != nil {
		b.Fatal(err)
	}
	const n = 4
	comps := make([]*ctt.Compressor, n)
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		comps[i] = ctt.NewCompressor(p.CST, i, timestat.ModeMeanStddev)
		sinks[i] = comps[i]
	}
	if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
		interp.Execute(p.AST, r)
	}); err != nil {
		b.Fatal(err)
	}
	left, right := comps[1].Finish(), comps[2].Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merge.Pair(merge.FromRank(left), merge.FromRank(right)); err != nil {
			b.Fatal(err)
		}
	}
}
