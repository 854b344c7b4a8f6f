// Package trace is the pipeline's flight recorder: a fixed-size lock-free
// ring buffer of timestamped spans and instants, cheap enough to leave wired
// into every stage and exportable as a Chrome trace-event JSON file
// (loadable in Perfetto or chrome://tracing) or a plain-text timeline.
//
// The recorder is the pipeline's one clock: internal/obs counts and sizes,
// and every stage time comes from here. It answers ordering questions from
// the ring (when did this merge pair run, which deflate worker was idle, did
// the corpus cache miss happen before or after the simulator stalled) and
// aggregate ones from its per-name totals, an exact count and summed
// duration for every event name that, unlike the ring, never wraps. It
// follows the same discipline as obs.Sink: every method is defined on the
// pointer receiver and starts with a nil check, so a nil *Recorder is the
// disabled state and instrumented code pays one predictable branch and zero
// allocations when recording is off.
//
// With a recorder attached, emitting one event is two atomic adds into its
// name's totals and a handful of atomic stores into a pre-allocated slot —
// no locks, no allocation, no channel. Writers take sequence numbers from a
// single atomic cursor; when the ring wraps, the oldest events are
// overwritten (and counted as drops) rather than blocking the pipeline.
// Readers validate each slot's sequence number before and after copying it,
// so a snapshot taken concurrently with writers never yields a torn record;
// under extreme wrap pressure a slot being rewritten during the copy is
// simply skipped. The ring is a diagnostic window, not an accounting ledger:
// events on error paths or mid-rewrite may be lost, and Drops() reports how
// many fell off the back.
package trace

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// Cat enumerates the pipeline stage categories. Each category becomes one
// Perfetto "process" row, with its lanes as threads underneath.
type Cat uint8

const (
	CatCompress Cat = iota // per-rank compression (ctt): lane = rank; the run on lane 0
	CatMerge               // inter-process reduction: lane = reduction depth; the whole reduction on lane 0
	CatCodec               // trace serialization/deserialization: lane 0
	CatIOEnc               // CYPB frame deflate: lane = writer worker
	CatIODec               // CYPB frame inflate: lane = reader worker
	CatCorpus              // content-addressed store: lane 0
	CatReplay              // streaming replay (skeletons, memo): lane 0
	CatSim                 // LogGP simulation: lane 0
	NumCats                // sentinel; must be last
)

var catNames = [NumCats]string{
	CatCompress: "compress",
	CatMerge:    "merge",
	CatCodec:    "codec",
	CatIOEnc:    "blockio.enc",
	CatIODec:    "blockio.dec",
	CatCorpus:   "corpus",
	CatReplay:   "replay",
	CatSim:      "sim",
}

// String returns the category's stable name (the Perfetto process name).
func (c Cat) String() string {
	if c < NumCats {
		return catNames[c]
	}
	return "unknown_cat"
}

// Name enumerates the recordable event names.
type Name uint8

const (
	NameNone         Name = iota
	NameFinish            // compressor Finish: args events, executed vertices
	NameWildcard          // wildcard receive resolved (instant): args site gid, still-cached
	NamePair              // one merge pair: args ranks merged, walks compatible() refused
	NameEncode            // trace serialization: args bytes out, ranks
	NameDecode            // trace deserialization: args entries, events
	NameDeflate           // one CYPB frame compressed: args usize, csize
	NameInflate           // one CYPB frame decompressed: args csize, usize
	NameIngest            // corpus ingest: args encoding bytes, mode (see IngestMode*)
	NameCorpusGet         // corpus get: args cache hit (1/0), bytes served
	NameSkeleton          // replay skeleton build: args rank, skeleton events
	NameMemoHit           // replay class memo hit (instant): args rank, 0
	NameWindow            // one simulator sweep over every rank: args rank visits, events
	NameDecodeSelect      // selective decode: args entries materialized, payload bytes skipped
	NameRun               // traced run, event intake on every rank: args ranks, simulated ns
	NameReduce            // whole inter-process reduction: args ranks, workers
	NameSimulate          // LogGP simulation, the window sweeps nested inside: args ranks, events
	NumNames              // sentinel; must be last
)

var nameStrings = [NumNames]string{
	NameNone:         "none",
	NameFinish:       "finish",
	NameWildcard:     "wildcard_resolve",
	NamePair:         "pair",
	NameEncode:       "encode",
	NameDecode:       "decode",
	NameDeflate:      "deflate",
	NameInflate:      "inflate",
	NameIngest:       "ingest",
	NameCorpusGet:    "get",
	NameSkeleton:     "skeleton",
	NameMemoHit:      "memo_hit",
	NameWindow:       "window",
	NameDecodeSelect: "decode_select",
	NameRun:          "run",
	NameReduce:       "reduce",
	NameSimulate:     "simulate",
}

// String returns the event name's stable string.
func (n Name) String() string {
	if n < NumNames {
		return nameStrings[n]
	}
	return "unknown_name"
}

// argNames labels the two int64 args of each event name in exports.
var argNames = [NumNames][2]string{
	NameFinish:       {"events", "executed"},
	NameWildcard:     {"site", "cached"},
	NamePair:         {"ranks", "walk_rejects"},
	NameEncode:       {"bytes", "ranks"},
	NameDecode:       {"entries", "events"},
	NameDeflate:      {"usize", "csize"},
	NameInflate:      {"csize", "usize"},
	NameIngest:       {"bytes", "mode"},
	NameCorpusGet:    {"hit", "bytes"},
	NameSkeleton:     {"rank", "events"},
	NameMemoHit:      {"rank", "arg1"},
	NameWindow:       {"visits", "events"},
	NameDecodeSelect: {"eager", "skipped_bytes"},
	NameRun:          {"ranks", "sim_ns"},
	NameReduce:       {"ranks", "workers"},
	NameSimulate:     {"ranks", "events"},
}

// ArgNames returns the export labels for an event name's two args.
func ArgNames(n Name) [2]string {
	if n < NumNames && argNames[n][0] != "" {
		return argNames[n]
	}
	return [2]string{"arg0", "arg1"}
}

// NameIngest mode annotations (arg1).
const (
	IngestFull  = 0 // stored as a full standalone encoding
	IngestDelta = 1 // stored as a payload delta against the class representative
	IngestDup   = 2 // answered by an existing content hash, nothing stored
)

// Kind distinguishes duration spans from point events.
type Kind uint8

const (
	KindSpan    Kind = iota // has a start and a duration
	KindInstant             // a point in time, Dur == 0
)

// slot is one ring entry. Every field is atomic so concurrent writers and
// snapshot readers stay race-free; seq is written last (valid) and checked
// around reads.
type slot struct {
	seq  atomic.Int64 // 0 empty, -i being written, +i valid (i = 1-based claim)
	meta atomic.Int64 // packed kind | cat | name | lane
	t0   atomic.Int64 // start, ns since recorder creation
	dur  atomic.Int64 // duration ns (0 for instants)
	a0   atomic.Int64
	a1   atomic.Int64
}

func packMeta(k Kind, c Cat, n Name, lane int32) int64 {
	return int64(uint64(k)&0xff | uint64(c)<<8 | uint64(n)<<16 | uint64(uint32(lane))<<24)
}

func unpackMeta(m int64) (k Kind, c Cat, n Name, lane int32) {
	u := uint64(m)
	return Kind(u & 0xff), Cat(u >> 8 & 0xff), Name(u >> 16 & 0xff), int32(uint32(u >> 24))
}

// Recorder is the flight recorder. A nil *Recorder is the disabled state;
// every method on it is a cheap no-op. Non-nil recorders are safe for
// concurrent use by any number of writers and snapshot readers.
type Recorder struct {
	slots  []slot
	mask   uint64
	cursor atomic.Uint64 // total events ever claimed
	totals [NumNames]struct{ count, ns atomic.Int64 }
	base   time.Time // timestamp zero; monotonic via time.Since
}

// DefaultCapacity is the ring size used by New when capacity <= 0: 64 Ki
// events (~3 MiB), several full pipeline runs at the instrumented
// granularity (per rank-finish / merge pair / io frame / sim window, never
// per MPI event).
const DefaultCapacity = 1 << 16

const minCapacity = 1 << 10

// New returns an enabled recorder whose ring holds capacity events, rounded
// up to a power of two (minimum 1024). capacity <= 0 means DefaultCapacity.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := minCapacity
	for n < capacity {
		n <<= 1
	}
	return &Recorder{slots: make([]slot, n), mask: uint64(n - 1), base: time.Now()}
}

// Enabled reports whether the recorder captures anything (i.e. is non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Cap returns the ring capacity in events (0 on a nil recorder).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Now returns the recorder's current timestamp (ns since creation, from the
// monotonic clock). Useful as a since-mark for partial exports.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.base).Nanoseconds()
}

// Total returns how many events have ever been emitted (including ones the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}

// Drops returns how many events have been overwritten by ring wraparound —
// the capture is truncated (oldest-first) whenever this is non-zero.
func (r *Recorder) Drops() uint64 {
	if r == nil {
		return 0
	}
	total := r.cursor.Load()
	if cap := uint64(len(r.slots)); total > cap {
		return total - cap
	}
	return 0
}

// emit adds one record to its name's totals, then claims the next slot and
// publishes the record into it.
func (r *Recorder) emit(k Kind, c Cat, n Name, lane int32, t0, dur, a0, a1 int64) {
	tot := &r.totals[n]
	tot.count.Add(1)
	tot.ns.Add(dur)
	i := int64(r.cursor.Add(1)) // 1-based sequence
	s := &r.slots[uint64(i-1)&r.mask]
	// Claim the slot for this writer alone (a negative seq marks it in
	// flux): wait out a writer a lap behind that is still filling it, and
	// give way to a record a lap ahead that already holds it, since the
	// ring keeps the newest. Two writers never interleave their stores in
	// one slot, so a published slot is never torn.
	for {
		cur := s.seq.Load()
		if cur >= i {
			return
		}
		if cur >= 0 && s.seq.CompareAndSwap(cur, -i) {
			break
		}
		runtime.Gosched()
	}
	s.meta.Store(packMeta(k, c, n, lane))
	s.t0.Store(t0)
	s.dur.Store(dur)
	s.a0.Store(a0)
	s.a1.Store(a1)
	s.seq.Store(i)
}

// Total is one event name's exact tally over the recorder's life: how many
// times it was emitted and the summed duration of those spans (0 for
// instants).
type Total struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// Totals lists the names emitted at least once, in Name order.
type Totals []Total

// Totals returns the per-name totals. They cover every event ever emitted,
// including those the ring has since overwritten. A nil recorder yields nil.
func (r *Recorder) Totals() Totals {
	if r == nil {
		return nil
	}
	var out Totals
	for n := Name(0); n < NumNames; n++ {
		t := &r.totals[n]
		if c := t.count.Load(); c != 0 {
			out = append(out, Total{Name: n.String(), Count: c, TotalNS: t.ns.Load()})
		}
	}
	return out
}

// Span is an in-flight span token. Tokens are values: they never allocate,
// and the zero token (from a nil recorder) ends as a no-op.
type Span struct {
	r    *Recorder
	t0   int64
	cat  Cat
	name Name
	lane int32
}

// Begin opens a span in category c named n on the given lane. Close it with
// End; an abandoned token records nothing.
func (r *Recorder) Begin(c Cat, n Name, lane int32) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, t0: r.Now(), cat: c, name: n, lane: lane}
}

// End records the span with its two argument words.
func (sp Span) End(a0, a1 int64) {
	if sp.r == nil {
		return
	}
	t1 := sp.r.Now()
	sp.r.emit(KindSpan, sp.cat, sp.name, sp.lane, sp.t0, t1-sp.t0, a0, a1)
}

// Instant records a point event.
func (r *Recorder) Instant(c Cat, n Name, lane int32, a0, a1 int64) {
	if r == nil {
		return
	}
	r.emit(KindInstant, c, n, lane, r.Now(), 0, a0, a1)
}

// Event is one decoded ring record.
type Event struct {
	Seq   uint64 // 1-based emission order
	Kind  Kind
	Cat   Cat
	Name  Name
	Lane  int32
	Start int64 // ns since recorder creation
	Dur   int64 // ns; 0 for instants
	Arg0  int64
	Arg1  int64
}

// Snapshot copies every currently-valid ring record, sorted by start time
// (ties by sequence). It is safe to call concurrently with writers: slots
// rewritten mid-copy are skipped, not torn. A nil recorder yields nil.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		seq := s.seq.Load()
		if seq <= 0 {
			continue
		}
		ev := Event{
			Seq:   uint64(seq),
			Start: s.t0.Load(),
			Dur:   s.dur.Load(),
			Arg0:  s.a0.Load(),
			Arg1:  s.a1.Load(),
		}
		ev.Kind, ev.Cat, ev.Name, ev.Lane = unpackMeta(s.meta.Load())
		if s.seq.Load() != seq {
			continue // rewritten while copying
		}
		out = append(out, ev)
	}
	sortEvents(out)
	return out
}

// sortEvents orders events by start time, then emission order.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].Seq < evs[j].Seq
	})
}
