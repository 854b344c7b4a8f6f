// Package obs is the pipeline's zero-overhead-when-disabled metrics core.
//
// Every instrumented stage reports into the one *Sink that Attach installed
// and Attached returns. A nil sink is the disabled state: all methods are
// defined on the pointer receiver and begin with a nil check, so the hot
// paths pay one pointer load, one predictable branch and zero allocations
// when observation is off — no interface dispatch (the sink is a concrete
// type), no atomic read-modify-writes. With a sink attached, counters are
// single atomic adds and histograms one atomic add into a power-of-two
// bucket; none of it allocates, so the allocs/op budgets hold with the sink
// on as well.
//
// The sink has no clock: it counts and measures sizes. Every stage time
// comes from the flight recorder (internal/obs/trace), whose per-name
// totals a Report carries as its spans table.
//
// The Sink is safe for concurrent use. The data model is deliberately flat:
// a fixed enum of counters and a fixed enum of bounded power-of-two
// histograms. Report() snapshots both into a JSON/text-serializable Report,
// which -stats prints through Capture.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter enumerates the pipeline's monotonic counters. The groups mirror the
// pipeline stages: compressor event intake, stride compression, inter-process
// merge reduction, encode/decode, and streaming replay/simulation.
type Counter uint8

const (
	// Compressor event intake (internal/ctt).
	CompEvents           Counter = iota // MPI events seen by Compressor.Event
	CompMergeHits                       // events folded into an existing record
	CompNewRecords                      // events that opened a new record
	CompPeerPatternFolds                // events folded by extending a peer cycle
	CompCycleFolds                      // events consumed by an open record cycle
	CompWildcardCached                  // wildcard receives parked until resolution
	CompWildcardResolved                // cached wildcard receives flushed at completion
	CompReqPeak                         // peak live non-blocking requests (gauge)
	CompWildPeak                        // peak cached wildcard events (gauge)

	// Stride compression (aggregated at Compressor.Finish).
	StrideValues         // values stored across loop/taken vectors
	StrideRuns           // stride runs holding them
	StrideBytesSaved     // raw bytes minus encoded bytes (when positive)
	StrideIncompressible // vectors whose run encoding beat raw by nothing

	// Inter-process merge reduction (internal/merge).
	MergePairs           // Pair invocations
	MergeKeyRejects      // entry comparisons settled by invariant-key inequality (proven incompatible)
	MergeWalks           // entry comparisons the record walk (compatible) decided
	MergeWalkRejects     // of which: walks that refused the pair
	MergeEntriesUnmerged // right-hand entries appended unmerged (new rank group)
	MergePoisonings      // abs-merge RelUnsafe poisonings
	MergeScratchReuses   // recycled right-leaf scratch trees served

	// Encode/decode (internal/merge serialize).
	EncTraces       // Encode calls
	EncBytesRaw     // total raw encoded bytes
	EncBytesCST     // of which: embedded CST section
	EncBytesRecords // of which: entry/record section
	EncGzipTraces   // EncodeGzip calls
	EncBytesGzip    // gzip-compressed output bytes
	DecTraces       // Decode calls
	DecEntries      // entries decoded
	DecRecords      // comm records decoded

	// Block-parallel container I/O (internal/blockio).
	EncBlockedTraces // EncodeBlocked calls
	EncBytesBlocked  // CYPB container output bytes
	IOFramesEnc      // frames compressed into CYPB containers
	IOFramesDec      // frames inflated out of CYPB containers

	// Streaming replay and simulation (internal/merge.Streamer,
	// internal/replay, internal/simmpi).
	ReplayRankMemoHits   // ranks answered from the rank→class memo
	ReplayClassReuses    // resolved ranks that joined an existing class
	ReplaySkeletonBuilds // replay skeletons built (one tree walk each)
	ReplayShapeFolds     // entries mapped to an earlier entry of their vertex with the same replay shape
	ReplayEventsEmitted  // events synthesized by replay paths
	SimEventsProcessed   // events consumed by the LogGP engine
	SimBlockedCopies     // blocked events copied into rank-local buffers
	SimWindows           // simulator sweeps over every rank
	SimMatchDepthPeak    // peak per-key match-table depth (gauge)
	SimPendingPeak       // peak posted-but-uncompleted receives on any one rank (gauge)
	SimUnmatchedRecvs    // posted receives never completed by a wait when their rank drained

	// Content-addressed corpus (internal/corpus).
	CorpusIngests      // traces offered to Store.Ingest
	CorpusDuplicates   // ingests answered by an existing content hash
	CorpusDeltaRuns    // runs stored as payload deltas against a class rep
	CorpusFullRuns     // runs stored as full standalone encodings
	CorpusClasses      // structural classes created
	CorpusLogicalBytes // standalone-encoding bytes represented by the corpus
	CorpusStoredBytes  // run-record body bytes actually written
	CorpusGets         // Store.Get / GetBytes calls
	CorpusCacheHits    // gets served by the decoded-trace cache
	CorpusCacheMisses  // gets that had to reconstruct and decode
	CorpusCacheEvicts  // decoded traces evicted from the cache
	// CorpusSegInflated counts segment payload bytes inflated to read
	// single records of sealed segments; with IOFramesDec it says whether a
	// cold get paid for its record or for its neighbours too.
	CorpusSegInflated
	// CorpusPatchedWords counts payload words reassembly patched (at every
	// cold get, and at ingest's verify): words whose delta token was not
	// zero, so they were XORed onto the class representative's and
	// re-encoded. Every other word is a byte copy.
	CorpusPatchedWords

	// Selective decode with projection pushdown (merge.DecodeSelectAuto).
	SelDecodes           // selective decodes served by the projection walk
	SelFallbacks         // DecodeSelectAuto calls that fell back to a full decode
	SelEntriesEager      // entries whose payload decoded eagerly (selection hit)
	SelEntriesSkipped    // entries whose payload was passed over
	SelBytesMaterialized // payload bytes decoded eagerly
	SelBytesSkipped      // payload bytes skipped at decode time

	NumCounters // sentinel; must be last
)

var counterNames = [NumCounters]string{
	CompEvents:           "comp_events",
	CompMergeHits:        "comp_merge_hits",
	CompNewRecords:       "comp_new_records",
	CompPeerPatternFolds: "comp_peer_pattern_folds",
	CompCycleFolds:       "comp_cycle_folds",
	CompWildcardCached:   "comp_wildcard_cached",
	CompWildcardResolved: "comp_wildcard_resolved",
	CompReqPeak:          "comp_req_table_peak",
	CompWildPeak:         "comp_wildcard_cache_peak",
	StrideValues:         "stride_values",
	StrideRuns:           "stride_runs",
	StrideBytesSaved:     "stride_bytes_saved",
	StrideIncompressible: "stride_incompressible_vectors",
	MergePairs:           "merge_pairs",
	MergeKeyRejects:      "merge_key_rejects",
	MergeWalks:           "merge_walks",
	MergeWalkRejects:     "merge_walk_rejects",
	MergeEntriesUnmerged: "merge_entries_unmerged",
	MergePoisonings:      "merge_abs_poisonings",
	MergeScratchReuses:   "merge_scratch_reuses",
	EncTraces:            "enc_traces",
	EncBytesRaw:          "enc_bytes_raw",
	EncBytesCST:          "enc_bytes_cst",
	EncBytesRecords:      "enc_bytes_records",
	EncGzipTraces:        "enc_gzip_traces",
	EncBytesGzip:         "enc_bytes_gzip",
	DecTraces:            "dec_traces",
	DecEntries:           "dec_entries",
	DecRecords:           "dec_records",
	EncBlockedTraces:     "enc_blocked_traces",
	EncBytesBlocked:      "enc_bytes_blocked",
	IOFramesEnc:          "io_frames_encoded",
	IOFramesDec:          "io_frames_decoded",
	ReplayRankMemoHits:   "replay_rank_memo_hits",
	ReplayClassReuses:    "replay_class_reuses",
	ReplaySkeletonBuilds: "replay_skeleton_builds",
	ReplayShapeFolds:     "replay_shape_folds",
	ReplayEventsEmitted:  "replay_events_emitted",
	SimEventsProcessed:   "sim_events_processed",
	SimBlockedCopies:     "sim_blocked_copies",
	SimWindows:           "sim_windows",
	SimMatchDepthPeak:    "sim_match_table_peak",
	SimPendingPeak:       "sim_pending_peak",
	SimUnmatchedRecvs:    "sim_unmatched_recvs",
	CorpusIngests:        "corpus_ingests",
	CorpusDuplicates:     "corpus_duplicates",
	CorpusDeltaRuns:      "corpus_delta_runs",
	CorpusFullRuns:       "corpus_full_runs",
	CorpusClasses:        "corpus_classes",
	CorpusLogicalBytes:   "corpus_logical_bytes",
	CorpusStoredBytes:    "corpus_stored_bytes",
	CorpusGets:           "corpus_gets",
	CorpusCacheHits:      "corpus_cache_hits",
	CorpusCacheMisses:    "corpus_cache_misses",
	CorpusCacheEvicts:    "corpus_cache_evicts",
	CorpusSegInflated:    "corpus_seg_inflated_bytes",
	CorpusPatchedWords:   "corpus_patched_words",
	SelDecodes:           "sel_decodes",
	SelFallbacks:         "sel_fallbacks",
	SelEntriesEager:      "sel_entries_eager",
	SelEntriesSkipped:    "sel_entries_skipped",
	SelBytesMaterialized: "sel_bytes_materialized",
	SelBytesSkipped:      "sel_bytes_skipped",
}

// String returns the counter's stable snake_case name (the JSON key).
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "unknown_counter"
}

// Hist enumerates the bounded power-of-two histograms.
type Hist uint8

const (
	HistReqOccupancy        Hist = iota // live requests at each non-blocking post
	HistWildcardDepth                   // cached wildcard events at each cache insert
	HistSimQueueDepth                   // in-flight message queue depth at each send
	HistSimWindowEvents                 // events processed per simulator sweep
	HistIOFrameBytes                    // compressed bytes per CYPB frame
	HistCorpusDeltaPermille             // stored body bytes per mille of the standalone encoding

	NumHists // sentinel; must be last
)

var histNames = [NumHists]string{
	HistReqOccupancy:        "req_table_occupancy",
	HistWildcardDepth:       "wildcard_cache_depth",
	HistSimQueueDepth:       "sim_queue_depth",
	HistSimWindowEvents:     "sim_window_events",
	HistIOFrameBytes:        "io_frame_bytes",
	HistCorpusDeltaPermille: "corpus_delta_permille",
}

// String returns the histogram's stable snake_case name.
func (h Hist) String() string {
	if h < NumHists {
		return histNames[h]
	}
	return "unknown_hist"
}

// HistBuckets bounds every histogram: bucket 0 holds values <= 0, bucket i
// holds values v with bits.Len64(v) == i (i.e. 2^(i-1) <= v < 2^i), and the
// final bucket absorbs everything larger (~2^30 and up).
const HistBuckets = 31

// Histogram is a bounded power-of-two histogram. The zero value is ready for
// use; all methods are safe for concurrent use.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	sum     atomic.Int64
}

// bucketOf maps a value to its power-of-two bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= HistBuckets-1 {
		return int64(1)<<62 - 1 // effectively unbounded
	}
	return int64(1)<<uint(i) - 1
}

// observe records one value.
func (h *Histogram) observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Sink collects pipeline metrics. The zero value is ready for use; a nil
// *Sink is the disabled state and every method on it is a cheap no-op.
type Sink struct {
	counters [NumCounters]atomic.Int64
	hists    [NumHists]Histogram
}

// New returns an empty enabled sink.
func New() *Sink { return &Sink{} }

// Enabled reports whether the sink collects anything (i.e. is non-nil).
func (s *Sink) Enabled() bool { return s != nil }

// Inc adds 1 to a counter.
func (s *Sink) Inc(c Counter) {
	if s == nil {
		return
	}
	s.counters[c].Add(1)
}

// Add adds n to a counter.
func (s *Sink) Add(c Counter, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.counters[c].Add(n)
}

// SetMax raises a gauge-style counter to v if v exceeds its current value.
func (s *Sink) SetMax(c Counter, v int64) {
	if s == nil {
		return
	}
	cur := s.counters[c].Load()
	for v > cur && !s.counters[c].CompareAndSwap(cur, v) {
		cur = s.counters[c].Load()
	}
}

// Observe records v into a histogram.
func (s *Sink) Observe(h Hist, v int64) {
	if s == nil {
		return
	}
	s.hists[h].observe(v)
}

// Value returns a counter's current value (0 on a nil sink).
func (s *Sink) Value(c Counter) int64 {
	if s == nil {
		return 0
	}
	return s.counters[c].Load()
}

// HistCount returns the number of observations a histogram holds.
func (s *Sink) HistCount(h Hist) int64 {
	if s == nil {
		return 0
	}
	var n int64
	for i := range s.hists[h].buckets {
		n += s.hists[h].buckets[i].Load()
	}
	return n
}

// LocalHist is a single-goroutine histogram for hot loops that cannot afford
// an atomic per observation: Observe is two plain adds into local memory, and
// FlushHist folds the whole thing into a shared sink histogram with one
// atomic add per non-empty bucket. The zero value is ready for use.
type LocalHist struct {
	buckets [HistBuckets]int64
	sum     int64
}

// Observe records one value locally (not safe for concurrent use).
func (l *LocalHist) Observe(v int64) {
	l.buckets[bucketOf(v)]++
	l.sum += v
}

// FlushHist merges l into histogram h and zeroes l. On a nil sink the local
// tallies are discarded.
func (s *Sink) FlushHist(h Hist, l *LocalHist) {
	if s == nil {
		*l = LocalHist{}
		return
	}
	d := &s.hists[h]
	for i, n := range l.buckets {
		if n != 0 {
			d.buckets[i].Add(n)
		}
	}
	if l.sum != 0 {
		d.sum.Add(l.sum)
	}
	*l = LocalHist{}
}
