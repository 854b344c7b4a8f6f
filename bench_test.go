package cypress

// One testing.B benchmark per paper table/figure, each driving the same
// harness as cmd/cypressbench at smoke scale, plus component-level
// microbenchmarks for the compression hot paths. Regenerate the full
// evaluation with:  go run ./cmd/cypressbench -exp all

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/npb"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.Config{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1CompilationOverhead(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig15TraceSizes(b *testing.B)           { runExperiment(b, "fig15") }
func BenchmarkFig16IntraOverhead(b *testing.B)        { runExperiment(b, "fig16") }
func BenchmarkFig17CommPatterns(b *testing.B)         { runExperiment(b, "fig17") }
func BenchmarkFig18InterOverhead(b *testing.B)        { runExperiment(b, "fig18") }
func BenchmarkFig19LeslieSizes(b *testing.B)          { runExperiment(b, "fig19") }
func BenchmarkFig20LesliePatterns(b *testing.B)       { runExperiment(b, "fig20") }
func BenchmarkFig21Prediction(b *testing.B)           { runExperiment(b, "fig21") }
func BenchmarkAblations(b *testing.B)                 { runExperiment(b, "ablate") }

// Component microbenchmarks for the compression hot paths (bodies live in
// internal/bench/micro.go so cypressbench -benchjson can run them too).
// All report allocations; BenchmarkCompressorEvent is the steady-state
// tracing-overhead guard (see the AllocsPerRun test in internal/ctt).

func BenchmarkCompressorEvent(b *testing.B) { bench.BenchCompressorEvent(b) }

// BenchmarkCompressorEventObs is the same path with a live metrics sink; the
// delta against BenchmarkCompressorEvent is the observability overhead
// (budget: <3% ns/op, identical allocs/op — see internal/obs).
func BenchmarkCompressorEventObs(b *testing.B) { bench.BenchCompressorEventObs(b) }
func BenchmarkRecordMerge(b *testing.B)        { bench.BenchRecordMerge(b) }
func BenchmarkMergePair(b *testing.B)          { bench.BenchMergePair(b) }
func BenchmarkEncode(b *testing.B)             { bench.BenchEncode(b) }
func BenchmarkMergeAll256(b *testing.B)        { bench.BenchMergeAll256(b) }
func BenchmarkMergeAll1024(b *testing.B)       { bench.BenchMergeAll1024(b) }
func BenchmarkMergeAll4096(b *testing.B)       { bench.BenchMergeAll4096(b) }

// Marker-bound and wide-fan-out streams: where the cursor's child lookup,
// not record folding, is the cost.

func BenchmarkCompressorMarkers(b *testing.B)   { bench.BenchCompressorMarkers(b) }
func BenchmarkCompressorEventWide(b *testing.B) { bench.BenchCompressorEventWide(b) }

// Block-parallel container benchmarks (bodies in internal/bench/micro.go):
// the gzip baseline beside the CYPB worker sweep. The emitted container bytes
// are identical at every worker count, so the sweep isolates coordination
// cost (single-core) or speedup (multi-core).

func BenchmarkEncodeGzip1024(b *testing.B)      { bench.BenchEncodeGzip1024(b) }
func BenchmarkEncodeBlocked1024W1(b *testing.B) { bench.BenchEncodeBlocked1024W1(b) }
func BenchmarkEncodeBlocked1024W2(b *testing.B) { bench.BenchEncodeBlocked1024W2(b) }
func BenchmarkEncodeBlocked1024W4(b *testing.B) { bench.BenchEncodeBlocked1024W4(b) }

// Streaming decompression benchmarks (bodies in internal/bench/replaybench.go).

func BenchmarkReplayRank(b *testing.B)     { bench.BenchReplayRank(b) }
func BenchmarkPredict256(b *testing.B)     { bench.BenchPredict256(b) }
func BenchmarkPredict1024(b *testing.B)    { bench.BenchPredict1024(b) }
func BenchmarkSimulate1024W1(b *testing.B) { bench.BenchSimulate1024W1(b) }
func BenchmarkCommMatrix1024(b *testing.B) { bench.BenchCommMatrix1024(b) }

// Content-addressed corpus benchmarks (bodies in internal/bench/corpusbench.go):
// cross-run dedup sizing, ingest throughput, and cold-versus-warm serving of
// decoded traces. BenchmarkCorpusGetWarm1024 is the zero-alloc warm-path
// guard (see TestWarmGetNoAllocs in internal/corpus).

func BenchmarkCorpusIngest1024(b *testing.B)      { bench.BenchCorpusIngest1024(b) }
func BenchmarkCorpusBytes1024(b *testing.B)       { bench.BenchCorpusBytes1024(b) }
func BenchmarkCorpusGetCold1024(b *testing.B)     { bench.BenchCorpusGetCold1024(b) }
func BenchmarkCorpusGetWarm1024(b *testing.B)     { bench.BenchCorpusGetWarm1024(b) }
func BenchmarkCorpusPredictCold1024(b *testing.B) { bench.BenchCorpusPredictCold1024(b) }
func BenchmarkCorpusPredictWarm1024(b *testing.B) { bench.BenchCorpusPredictWarm1024(b) }

// Selective decode with projection pushdown: single-rank serving against the
// full-decode baselines over the sharded 1024-rank fixture.
func BenchmarkDecodeSharded1024(b *testing.B)        { bench.BenchDecodeSharded1024(b) }
func BenchmarkDecodeSelect1024Rank1(b *testing.B)    { bench.BenchDecodeSelect1024Rank1(b) }
func BenchmarkCorpusGetProjected1024(b *testing.B)   { bench.BenchCorpusGetProjected1024(b) }
func BenchmarkReplayRankProjected1024(b *testing.B)  { bench.BenchReplayRankProjected1024(b) }
func BenchmarkReplayRankFullDecode1024(b *testing.B) { bench.BenchReplayRankFullDecode1024(b) }

// BenchmarkPipelineCompile measures the static analysis module end to end
// (parse, check, lower, CFG analyses, CST build) on the largest skeleton.
func BenchmarkPipelineCompile(b *testing.B) {
	src := npb.Get("BT").Source(64, npb.Paper)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineTraceJacobi measures the full dynamic pipeline: run,
// compress, merge, for a 16-rank Jacobi iteration.
func BenchmarkPipelineTraceJacobi(b *testing.B) {
	prog, err := Compile(`
func main() {
	for var k = 0; k < 50; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
	}
	reduce(0, 8);
}`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Trace(16, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineReplay measures sequence-preserving decompression.
func BenchmarkPipelineReplay(b *testing.B) {
	prog, err := Compile(npb.Get("LU").Source(16, npb.Small))
	if err != nil {
		b.Fatal(err)
	}
	res, err := prog.Trace(16, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Replay(i % 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinePredict measures decompression plus LogGP simulation.
func BenchmarkPipelinePredict(b *testing.B) {
	prog, err := Compile(npb.Get("LESlie3d").Source(16, npb.Small))
	if err != nil {
		b.Fatal(err)
	}
	res, err := prog.Trace(16, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Predict(); err != nil {
			b.Fatal(err)
		}
	}
}
