// Package cypress is a full reimplementation of CYPRESS (Zhai et al.,
// SC 2014): hybrid static-dynamic, top-down communication trace compression
// for message-passing programs, together with every substrate the paper's
// pipeline needs — an MPL frontend and CFG analyses standing in for
// C + LLVM, a goroutine MPI runtime standing in for the cluster, dynamic-only
// baseline compressors (ScalaTrace, ScalaTrace-2, Gzip), a sequence-
// preserving replay engine, and a LogGP trace-driven performance simulator
// standing in for SIM-MPI.
//
// The typical pipeline mirrors the paper's Figure 2:
//
//	prog, _ := cypress.Compile(src)            // static: CST extraction
//	res, _ := prog.Trace(64, cypress.Options{})// dynamic: run + compress + merge
//	seq, _ := res.Replay(3)                    // decompress rank 3
//	pred, _ := res.PredictPar(0)               // LogGP performance prediction
package cypress

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/corpus"
	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/simmpi"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// Program is a compiled MPL program: AST, CFG-level IR, and the extracted
// communication structure tree.
type Program struct {
	Source string
	AST    *lang.Program
	IR     *ir.Program
	CST    *cst.Tree
	// Recursive lists the user functions on call-graph cycles.
	Recursive map[string]bool
}

// Compile parses, checks, lowers, and runs the static analysis module on an
// MPL source program (paper Section III).
func Compile(src string) (*Program, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("cypress: parse: %w", err)
	}
	rec, err := lang.Check(ast)
	if err != nil {
		return nil, fmt.Errorf("cypress: check: %w", err)
	}
	irProg, err := ir.Lower(ast)
	if err != nil {
		return nil, fmt.Errorf("cypress: lower: %w", err)
	}
	tree, err := cst.Build(irProg)
	if err != nil {
		return nil, fmt.Errorf("cypress: cst: %w", err)
	}
	return &Program{Source: src, AST: ast, IR: irProg, CST: tree, Recursive: rec}, nil
}

// TimeMode selects how communication times are summarized in records.
type TimeMode = timestat.Mode

// Time recording modes (paper Section IV-A supports both).
const (
	TimeMeanStddev = timestat.ModeMeanStddev
	TimeHistogram  = timestat.ModeHistogram
)

// Options configures a traced run.
type Options struct {
	// Params is the synthetic network cost model; zero value means
	// mpisim.DefaultParams().
	Params *mpisim.Params
	// TimeMode defaults to mean/stddev recording.
	TimeMode TimeMode
	// MergeWorkers bounds the parallel inter-process merge; 0 = GOMAXPROCS.
	MergeWorkers int
	// KeepRaw additionally collects the raw per-rank event streams (for
	// verification and comparison); costs memory proportional to the trace.
	KeepRaw bool
}

func (o *Options) params() mpisim.Params {
	if o.Params != nil {
		return *o.Params
	}
	return mpisim.DefaultParams()
}

// Result is a completed traced run.
type Result struct {
	// Merged is the job-wide compressed trace tree.
	Merged *merge.Merged
	// SimulatedNS is the synthetic execution time of the run itself (the
	// "measured" time for prediction experiments).
	SimulatedNS float64
	// Raw holds per-rank uncompressed event streams when Options.KeepRaw.
	Raw    [][]trace.Event
	params mpisim.Params

	streamOnce sync.Once
	stream     *merge.Streamer
	// streamFn, when set, supplies the streamer instead of building a fresh
	// one — corpus-served results share the cached trace's memoized streamer.
	streamFn func() *merge.Streamer
}

// Streamer returns the lazily-built streaming replayer over the merged tree.
// It is shared by Replay, PredictPar and CommMatrixPar, so replay classes and
// their skeletons are discovered once and reused across every consumer.
func (r *Result) Streamer() *merge.Streamer {
	r.streamOnce.Do(func() {
		if r.streamFn != nil {
			r.stream = r.streamFn()
			return
		}
		r.stream = merge.NewStreamer(r.Merged)
	})
	return r.stream
}

// Trace executes the program on nprocs simulated ranks under CYPRESS
// compression and merges the per-rank trees (paper Section IV). Every stage
// reports into the metrics sink and flight recorder attached with
// obs.Attach; none is attached by default.
func (p *Program) Trace(nprocs int, opts Options) (*Result, error) {
	params := opts.params()
	comps := make([]*ctt.Compressor, nprocs)
	raws := make([]*trace.CollectorSink, nprocs)
	sinks := make([]trace.Sink, nprocs)
	for i := range sinks {
		comps[i] = ctt.NewCompressor(p.CST, i, opts.TimeMode)
		if opts.KeepRaw {
			raws[i] = &trace.CollectorSink{}
			sinks[i] = teeSink{raws[i], comps[i]}
		} else {
			sinks[i] = comps[i]
		}
	}
	tsp := obs.AttachedRecorder().Begin(ftrace.CatCompress, ftrace.NameRun, 0)
	simNS, err := mpisim.Run(nprocs, params, sinks, func(r *mpisim.Rank) {
		interp.Execute(p.AST, r)
	})
	tsp.End(int64(nprocs), int64(simNS))
	if err != nil {
		return nil, fmt.Errorf("cypress: run: %w", err)
	}
	ctts := make([]*ctt.RankCTT, nprocs)
	for i, c := range comps {
		ctts[i] = c.Finish()
	}
	m, err := merge.All(ctts, opts.MergeWorkers)
	if err != nil {
		return nil, fmt.Errorf("cypress: merge: %w", err)
	}
	res := &Result{Merged: m, SimulatedNS: simNS, params: params}
	if opts.KeepRaw {
		res.Raw = make([][]trace.Event, nprocs)
		for i, r := range raws {
			res.Raw[i] = r.Events
		}
	}
	return res, nil
}

// Replay decompresses one rank's exact event sequence (paper Section V). It
// runs through the streaming replayer: the first rank of a replay class
// pays one tree walk, every later rank of the class is a flat skeleton scan.
// The sequence is identical to the test oracle's, replay.Sequence over
// Merged.ForRank.
func (r *Result) Replay(rank int) ([]trace.Event, error) {
	var out []trace.Event
	err := r.Streamer().Replay(rank, func(e *trace.Event) {
		out = append(out, *e)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReplayEvents streams rank's event sequence into emit without materializing
// it. The event pointer is only valid during the callback.
func (r *Result) ReplayEvents(rank int, emit func(e *trace.Event)) error {
	return r.Streamer().Replay(rank, emit)
}

// PredictPar decompresses every rank and runs the LogGP trace-driven
// simulator, returning the predicted job performance (paper Figure 14's
// pipeline). workers bounds skeleton preparation (<= 0 uses GOMAXPROCS); the
// LogGP simulation that follows is one sequential sweep. Rank sequences are
// fed to the simulator as pull iterators over shared replay skeletons, so
// peak memory is O(classes · events-per-rank) instead of O(ranks ·
// events-per-rank). The result is identical at every worker count and
// identical to simulating materialized sequences (simmpi.Simulate, the test
// oracle).
func (r *Result) PredictPar(workers int) (simmpi.Result, error) {
	s := r.Streamer()
	if err := s.Prepare(workers); err != nil {
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
	return simmpi.SimulateStreamPar(srcs, r.params, workers)
}

// Format selects the file layout WriteTrace emits. Every format holds the
// same trace and OpenTrace reads each of them back.
type Format int

const (
	// FormatRaw is the bare v1 encoding (the paper's "Cypress").
	FormatRaw Format = iota
	// FormatGzip is the v1 encoding in one gzip member ("Cypress+Gzip").
	FormatGzip
	// FormatIndexed is the v1 encoding followed by the CYPI section index.
	// The body bytes are FormatRaw's; a rank-projected OpenTrace checks every
	// section boundary it finds against the index.
	FormatIndexed
	// FormatBlocked is the v1 encoding inside the CYPB block container:
	// sharded deflate frames with a seekable frame index in the footer. The
	// bytes are the same at every compression worker count.
	FormatBlocked
)

// WriteTrace serializes the merged compressed trace in format f and returns
// the bytes written.
func (r *Result) WriteTrace(w io.Writer, f Format) (int64, error) {
	switch f {
	case FormatRaw:
		return r.Merged.Encode(w)
	case FormatGzip:
		return r.Merged.EncodeGzip(w)
	case FormatIndexed:
		return r.Merged.EncodeIndexed(w)
	case FormatBlocked:
		return r.Merged.EncodeBlocked(w, 0)
	}
	return 0, fmt.Errorf("cypress: unknown trace format %d", f)
}

// OpenTrace is the one way a stored trace comes back: it decodes a trace file
// held in memory — written by WriteTrace in any Format; the container layer
// (gzip, CYPB, or none) is sniffed from the leading magic — into a Result
// ready for Replay, PredictPar and CommMatrixPar. It runs on the caller's
// goroutine.
//
// With no ranks every timing payload is decoded up front. With ranks the
// projection is pushed into the decoder: only those ranks' payloads are
// decoded, so single-rank serving cost scales with what the query touches,
// not with trace size; unselected sections are passed over by an
// allocation-free grammar walk (and checked against the section index of
// FormatIndexed files). Such a Result serves those ranks alone: Replay of
// any other rank, PredictPar, CommMatrixPar and WriteTrace return an error.
// The Result keeps nothing of data, and its prediction parameters are
// mpisim.DefaultParams(), as for Corpus.Get.
func OpenTrace(data []byte, ranks ...int) (*Result, error) {
	sel := merge.SelectAll()
	if len(ranks) > 0 {
		sel = merge.SelectRanks(ranks...)
	}
	m, err := merge.DecodeSelectAuto(data, sel, 0)
	if err != nil {
		return nil, err
	}
	return &Result{Merged: m, params: mpisim.DefaultParams()}, nil
}

// CommMatrixPar accumulates the communication volume matrix (bytes sent from
// row to column) from the decompressed trace — the analysis behind the
// paper's Figures 17 and 20. workers bounds the rank fan-out (<= 0 uses
// GOMAXPROCS). Ranks are replayed concurrently, each accumulating into its
// own matrix row in-flight — nothing is materialized and no locking is
// needed, because events of one rank arrive in order on a single goroutine.
// A send event whose peer lies outside [0, ranks) is an error, not a silently
// dropped sample: replayed sends always carry a concrete peer, so an
// out-of-range peer means the trace and the rank count disagree.
func (r *Result) CommMatrixPar(workers int) ([][]int64, error) {
	s := r.Streamer()
	n := s.NumRanks()
	mat := make([][]int64, n)
	for i := range mat {
		mat[i] = make([]int64, n)
	}
	peerErrs := make([]error, n) // one slot per rank: written only by its lane
	err := s.ReplayAll(workers, func(rank int, e *trace.Event) {
		if !e.Op.IsSendLike() {
			return
		}
		if e.Peer < 0 || e.Peer >= n {
			if peerErrs[rank] == nil {
				peerErrs[rank] = commPeerError(rank, e, n)
			}
			return
		}
		mat[rank][e.Peer] += int64(e.Size)
	})
	if err != nil {
		return nil, err
	}
	for _, perr := range peerErrs {
		if perr != nil {
			return nil, perr
		}
	}
	return mat, nil
}

func commPeerError(rank int, e *trace.Event, n int) error {
	return fmt.Errorf("cypress: comm matrix: rank %d %v at gid %d to peer %d outside [0,%d)",
		rank, e.Op, e.GID, e.Peer, n)
}

// TraceID is the content address of a trace in a corpus: a fingerprint of
// its exact standalone v1 encoding.
type TraceID = uint64

// CorpusOptions configures an opened trace corpus.
type CorpusOptions struct {
	// CacheBytes bounds the decoded-trace serving cache (0 = 64 MiB,
	// negative disables caching).
	CacheBytes int64
	// Workers bounds the deflate workers that write class and segment
	// containers (<= 1 deflates inline). Reads always inflate inline.
	Workers int
}

// Corpus is a content-addressed store of merged traces with structural
// dedup across runs and a warm decoded-trace serving cache. See
// internal/corpus for the storage format and the byte-identity argument.
type Corpus struct {
	store *corpus.Store
}

// OpenCorpus opens (creating if needed) a corpus directory.
func OpenCorpus(dir string, opts CorpusOptions) (*Corpus, error) {
	st, err := corpus.Open(dir, corpus.Options{CacheBytes: opts.CacheBytes, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	return &Corpus{store: st}, nil
}

// Ingest adds a traced run's merged tree to the corpus and returns its
// content address. Runs that share their communication structure with an
// earlier ingest store only a payload delta.
func (c *Corpus) Ingest(r *Result) (TraceID, error) { return c.store.Ingest(r.Merged) }

// IngestBytes adds a trace given its standalone v1 encoding (as written by
// WriteTrace in FormatRaw). Get reproduces these bytes exactly.
func (c *Corpus) IngestBytes(enc []byte) (TraceID, error) { return c.store.IngestBytes(enc) }

// GetBytes reconstructs the standalone v1 encoding of a stored trace,
// byte-identical to what was ingested.
func (c *Corpus) GetBytes(id TraceID) ([]byte, error) { return c.store.GetBytes(id) }

// Get returns the decoded trace as a Result ready for Replay, PredictPar and
// CommMatrixPar, plus a release handle pinning it in the serving cache. Warm
// gets skip decode entirely and share one memoized streamer, so repeated
// analyses of a hot trace pay no decompression. The Result's prediction
// parameters are mpisim.DefaultParams(); callers needing others should
// simulate through the lower-level APIs. Call release exactly once when
// done with the Result.
func (c *Corpus) Get(id TraceID) (r *Result, release func(), err error) {
	tr, err := c.store.Get(id)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Merged: tr.Merged, params: mpisim.DefaultParams(), streamFn: tr.Streamer}
	return res, tr.Release, nil
}

// GetProjected is Get with a rank projection pushed into the decode: on a
// cache miss only the listed ranks' timing payloads are decoded, and the
// Result serves those ranks alone, as OpenTrace's does (see
// corpus.Store.GetProjected). A projected tree never enters the serving
// cache; a resident whole trace serves a projected get as a hit.
func (c *Corpus) GetProjected(id TraceID, ranks ...int) (r *Result, release func(), err error) {
	tr, err := c.store.GetProjected(id, ranks)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Merged: tr.Merged, params: mpisim.DefaultParams(), streamFn: tr.Streamer}
	return res, tr.Release, nil
}

// Stats reports corpus totals (classes, runs, bytes, cache residency).
func (c *Corpus) Stats() (corpus.Stats, error) { return c.store.Stats() }

// Hashes lists the content addresses of every stored trace, ascending.
func (c *Corpus) Hashes() []TraceID { return c.store.Hashes() }

// Delete tombstones a stored trace; GC reclaims its bytes.
func (c *Corpus) Delete(id TraceID) error { return c.store.Delete(id) }

// GC compacts the corpus: tombstoned runs and unreferenced structural
// classes are dropped, live runs are rewritten into one fresh segment.
func (c *Corpus) GC() error { return c.store.GC() }

// Close seals the corpus's active log into a compressed segment and closes
// it. Results obtained from Get stay usable.
func (c *Corpus) Close() error { return c.store.Close() }

// StructuralFingerprint returns the whole-tree structural class key of a
// merged trace: the fold over its encoded header and every per-vertex
// structure section, ignoring all volatile timing payload. Two traces with
// equal fingerprints dedup into one corpus class.
func StructuralFingerprint(m *merge.Merged) (uint64, error) {
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		return 0, err
	}
	sp, err := merge.SplitEncoded(buf.Bytes())
	if err != nil {
		return 0, err
	}
	return sp.ClassKey(), nil
}

// Workload returns a named NPB/LESlie3d communication skeleton from the
// built-in registry, or nil.
func Workload(name string) *npb.Workload { return npb.Get(name) }

type teeSink struct {
	raw  *trace.CollectorSink
	comp *ctt.Compressor
}

func (t teeSink) LoopEnter(s int32)           { t.comp.LoopEnter(s) }
func (t teeSink) LoopIter(s int32)            { t.comp.LoopIter(s) }
func (t teeSink) BranchEnter(s int32, a int8) { t.comp.BranchEnter(s, a) }
func (t teeSink) BranchSkip(s int32)          { t.comp.BranchSkip(s) }
func (t teeSink) CallEnter(s int32)           { t.comp.CallEnter(s) }
func (t teeSink) StructExit()                 { t.comp.StructExit() }
func (t teeSink) CommSite(s int32)            { t.comp.CommSite(s) }
func (t teeSink) Event(e *trace.Event)        { t.raw.Event(e); t.comp.Event(e) }
func (t teeSink) Finalize()                   { t.comp.Finalize() }
