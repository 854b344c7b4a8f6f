package main

// Every call the benchmark makes into the program under test goes through
// this file: one small function per layer entry point. A change that
// renames, merges or removes part of the program's API edits these bodies
// and nothing else in the benchmark, and a reader sees here exactly which
// surface the numbers depend on.

import (
	"bytes"
	"io"

	cypress "repro"
	"repro/internal/corpus"
	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/replay"
	"repro/internal/simmpi"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// static: MPL source → AST, IR and communication structure tree.

func compile(src string) (*cypress.Program, error) { return cypress.Compile(src) }

func cstVertices(p *cypress.Program) int { return p.CST.NumVertices() }

// substrate: the goroutine-per-rank MPI runtime, used in set-up only.

func runLive(p *cypress.Program, ranks int, params mpisim.Params, sinks []trace.Sink) error {
	_, err := mpisim.Run(ranks, params, sinks, func(r *mpisim.Rank) { interp.Execute(p.AST, r) })
	return err
}

// ctt: intra-process compression.

func newCompressor(p *cypress.Program, rank int) *ctt.Compressor {
	return ctt.NewCompressor(p.CST, rank, timestat.ModeMeanStddev)
}

func finish(c *ctt.Compressor) *ctt.RankCTT { return c.Finish() }

// merge: inter-process reduction.

func mergeAll(ctts []*ctt.RankCTT, workers int) (*merge.Merged, error) {
	return merge.All(ctts, workers)
}

func mergedGroups(m *merge.Merged) int { return m.GroupCount() }

func mergedEvents(m *merge.Merged) int64 { return m.EventCount }

// merge: codec.

func encode(m *merge.Merged, w io.Writer) (int64, error) { return m.Encode(w) }

func encodeIndexed(m *merge.Merged, w io.Writer) (int64, error) { return m.EncodeIndexed(w) }

func encodeGzip(m *merge.Merged, w io.Writer) (int64, error) { return m.EncodeGzip(w) }

func decode(enc []byte) (*merge.Merged, error) { return merge.Decode(bytes.NewReader(enc)) }

func decodeSelect(enc []byte, rank int) (*merge.Merged, error) {
	return merge.DecodeSelectAuto(enc, merge.SelectRanks(rank), 1)
}

// blockio: the CYPB block container around the codec.

func encodeBlocked(m *merge.Merged, w io.Writer, workers int) (int64, error) {
	return m.EncodeBlocked(w, workers)
}

// corpus: the content-addressed store. cacheBytes < 0 disables the serving
// cache, 0 keeps the program's default.

func openCorpus(dir string, cacheBytes int64) (*cypress.Corpus, error) {
	return cypress.OpenCorpus(dir, cypress.CorpusOptions{CacheBytes: cacheBytes, Workers: 1})
}

func ingestBytes(c *cypress.Corpus, enc []byte) (cypress.TraceID, error) { return c.IngestBytes(enc) }

func get(c *cypress.Corpus, id cypress.TraceID) (*cypress.Result, func(), error) { return c.Get(id) }

func getProjected(c *cypress.Corpus, id cypress.TraceID, rank int) (*cypress.Result, func(), error) {
	return c.GetProjected(id, rank)
}

func getBytes(c *cypress.Corpus, id cypress.TraceID) ([]byte, error) { return c.GetBytes(id) }

func deleteTrace(c *cypress.Corpus, id cypress.TraceID) error { return c.Delete(id) }

func gcCorpus(c *cypress.Corpus) error { return c.GC() }

func corpusStats(c *cypress.Corpus) (corpus.Stats, error) { return c.Stats() }

func closeCorpus(c *cypress.Corpus) error { return c.Close() }

// replay: streaming decompression.

func newStreamer(m *merge.Merged) *merge.Streamer { return merge.NewStreamer(m) }

func streamerOf(r *cypress.Result) *merge.Streamer { return r.Streamer() }

func prepare(s *merge.Streamer, workers int) error { return s.Prepare(workers) }

func replayAll(s *merge.Streamer, workers int, fn func(rank int, e *trace.Event)) error {
	return s.ReplayAll(workers, fn)
}

func replayRank(r *cypress.Result, rank int, fn func(e *trace.Event)) error {
	return r.ReplayEvents(rank, fn)
}

func cursor(s *merge.Streamer, rank int) (*replay.Cursor, error) { return s.Cursor(rank) }

func classCount(s *merge.Streamer) int { return s.ClassCount() }

// simmpi: LogGP trace-driven simulation, and the analyses built on replay.

func simulate(srcs []simmpi.EventSource, workers int) (simmpi.Result, error) {
	return simmpi.SimulateStreamPar(srcs, mpisim.DefaultParams(), workers)
}

func predict(r *cypress.Result, workers int) (simmpi.Result, error) { return r.PredictPar(workers) }

func commMatrix(r *cypress.Result, workers int) ([][]int64, error) { return r.CommMatrixPar(workers) }
