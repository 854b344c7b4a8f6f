// Package ctt implements the Compressed Trace Tree and CYPRESS's intra-process
// on-the-fly trace compression (paper Section IV-A).
//
// A Compressor mirrors the static CST: one data slot per CST vertex, plus a
// cursor that always points at the vertex currently being executed, driven by
// the structure markers the instrumented program emits. Each incoming MPI
// event is "filled in" at its leaf and merged with the previous record when
// all parameters except time match. Loop vertices record per-activation
// iteration counts and branch-arm vertices record taken indices, both
// stride-compressed. Request handles of non-blocking operations are mapped to
// their poster's GID so completion records are replayable, and wildcard
// receives are cached until their source is resolved at completion.
package ctt

import (
	"fmt"
	"unsafe"

	"repro/internal/cst"
	"repro/internal/fp"
	"repro/internal/lang"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/stride"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// CommRecord is one run-length record on a comm leaf: Count consecutive
// executions with identical parameters. Ev holds the canonical parameters
// (Peer absolute, Reqs rewritten to poster GIDs, times zeroed); PeerRel holds
// the rank-relative peer encoding used for inter-process merging.
type CommRecord struct {
	// Ev.GID is always the GID of the vertex the record is stored under — the
	// root for MPI_Init/MPI_Finalize — on every path that builds records: the
	// compressor stamps it, and the decoders restore it from the vertex being
	// decoded (it is implicit in the layout, so it is not serialized). Replay
	// copies Ev, which is how a completion's Reqs (poster GIDs) find the
	// Irecv that posted them in the simulator.
	Ev      trace.Event
	PeerRel int
	Count   int64
	// Time and Compute are embedded by value: a fresh record costs zero
	// timestat heap allocations (timestat.Make), and records pack densely in
	// the compressor's and the decoder's arena chunks (arena.go).
	Time timestat.Stat
	// Compute summarizes the sequential computation time preceding each
	// folded event. The paper feeds SIM-MPI a separately-acquired
	// computation time; recording it alongside the communication time keeps
	// replayed traces simulation-ready (cf. Ratn et al. on preserving time).
	Compute timestat.Stat
	// RelEncoded is set by the inter-process merge when ranks were unified
	// under the relative ranking encoding: the record's true peer for rank r
	// is r + PeerRel, and Ev.Peer is no longer meaningful.
	RelEncoded bool
	// RelUnsafe is set by the inter-process merge when ranks were unified
	// under the absolute encoding even though their relative encodings
	// differed: Ev.Peer is the (shared) true peer, and PeerRel is stale — it
	// was computed for whichever rank contributed the record first and is not
	// valid for the group. Such a record must never be unified relatively in
	// a later merge level, or the stale PeerRel would silently misattribute
	// peers (lossy output). RelUnsafe and RelEncoded are mutually exclusive.
	// The flag is not serialized: it is a merge-time invariant, recomputed
	// from scratch on every merge, and decoded trees are never re-merged.
	RelUnsafe bool
	// Peers, when non-nil, means the record's occurrences cycle through
	// several peers (e.g. butterfly exchanges); PeerRel and Ev.Peer are then
	// unused. Peer offsets are rank-relative.
	Peers *PeerPattern
}

// PeerFor returns the record's peer rank from the perspective of rank r.
// For peer-pattern records use PeerForAt with the occurrence index.
func (r *CommRecord) PeerFor(rank int) int {
	if r.Peers != nil {
		return rank + int(r.Peers.At(0))
	}
	if r.RelEncoded {
		return rank + r.PeerRel
	}
	return r.Ev.Peer
}

// PeerForAt returns the peer of the record's k-th occurrence (0-based) from
// the perspective of rank r.
func (r *CommRecord) PeerForAt(rank int, k int64) int {
	if r.Peers != nil {
		return rank + int(r.Peers.At(k))
	}
	return r.PeerFor(rank)
}

// SizeBytes estimates the serialized footprint of the record.
func (r *CommRecord) SizeBytes() int64 {
	n := int64(2 + 4 + 4 + 4 + 2 + 4) // op, size, peer, tag, comm, count (varints, upper bound)
	n += int64(4 * len(r.Ev.Reqs))
	n += r.Time.SizeBytes()
	n += 16 // compute-time mean and count (varints, upper bound)
	if r.Peers != nil {
		n += r.Peers.SizeBytes()
	}
	return n
}

// VData is the runtime data of one CTT vertex.
type VData struct {
	// Records is the run-length event list for comm leaves (and for the
	// root, which holds the MPI_Init and MPI_Finalize events).
	Records []*CommRecord
	// Counts holds per-activation iteration counts for loop vertices and
	// recursion depths for recursive (pseudo-loop) call vertices.
	Counts stride.Vector
	// Taken holds, for branch-arm vertices, the branch-site reach indices at
	// which this arm was taken.
	Taken stride.Set
	// Cycles marks repeating record blocks (see Cycle).
	Cycles []Cycle

	// open is the in-progress activation's iteration count.
	open int64
	// cyc tracks in-progress record-cycle folding.
	cyc cycleState
	// reach counts how often the branch site was reached. It is used only on
	// the site's first arm vertex (arm 0, or arm 1 when arm 0 was pruned), the
	// one place both the compressor and replay can name without a lookup table;
	// replay recomputes it, so it is not part of the finished tree.
	reach int64
	// keyOK marks key as the memoized InvariantKey (see InvariantKeyCached).
	// Nothing the merge does changes that key, so it is never invalidated.
	keyOK bool
	key   fp.Hash
}

// Executed reports whether the vertex holds any dynamic data.
func (d *VData) Executed() bool {
	return len(d.Records) != 0 || d.Counts.Len() != 0 || d.Taken.Len() != 0
}

// SizeBytes estimates the serialized footprint of the vertex data.
func (d *VData) SizeBytes() int64 {
	var n int64
	for _, r := range d.Records {
		n += r.SizeBytes()
	}
	n += d.Counts.SizeBytes()
	n += d.Taken.SizeBytes()
	n += 24 * int64(len(d.Cycles))
	return n
}

// RankCTT is a finished per-rank compressed trace tree, ready for
// inter-process merging or replay.
type RankCTT struct {
	Rank     int
	Tree     *cst.Tree
	TreeHash uint64
	// Data is indexed by CST vertex GID.
	Data []VData
	// EventCount is the number of MPI events the rank produced (for
	// compression-ratio accounting).
	EventCount int64
	// Executed counts vertices holding dynamic data, precomputed at Finish
	// so the inter-process merge can size its slabs without rescanning.
	Executed int
}

// SizeBytes estimates the serialized footprint of the whole rank CTT
// (excluding the shared CST, which is stored once per job).
func (c *RankCTT) SizeBytes() int64 {
	var n int64
	for i := range c.Data {
		n += c.Data[i].SizeBytes()
	}
	return n
}

type frameKind uint8

const (
	fLoop frameKind = iota
	fBranch
	fCall
	fRecCall
)

type frame struct {
	kind    frameKind
	prev    *cst.Vertex
	entered *cst.Vertex
	// savedOpen preserves the entered vertex's in-progress activation count:
	// recursion can re-enter a loop vertex while an outer activation of the
	// same vertex is still open.
	savedOpen int64
}

// Compressor is the per-rank intra-process compression sink.
type Compressor struct {
	tree *cst.Tree
	rank int
	mode timestat.Mode

	data   []VData
	cursor *cst.Vertex
	stack  []frame

	site int32 // pending comm site from CommSite
	// reqs maps outstanding request ids to poster GIDs and cached wildcard
	// receives (ring-indexed dense table; see reqtable.go).
	reqs reqTable
	// reqScratch is the reusable buffer resolveCompletion rewrites request
	// ids into; records that keep a Reqs slice copy it out on the (rare)
	// new-record path, so the steady state is allocation-free.
	reqScratch []int32

	recs     recordArena // every record of the rank's leaves
	events   int64
	finished bool

	// obs is the sink attached (obs.Attach) when the compressor was built;
	// nil disables all observation at the cost of one predictable branch per
	// counter site.
	// Per-event tallies accumulate in tal (plain adds, no atomics) and flush
	// to the sink once, at Finish — the event hot path never pays an atomic.
	obs *obs.Sink
	tal compTally
}

// compTally is the compressor's local, single-goroutine event accounting.
// Fields mirror the obs.Comp* counters; Finish folds them into the shared
// sink in one batch so the per-event cost of observation is a register
// increment instead of an atomic RMW.
type compTally struct {
	mergeHits, newRecords    int64
	patternFolds, cycleFolds int64
	wildCached, wildResolved int64
	reqPeak, wildPeak        int64
	reqOcc, wildDepth        obs.LocalHist
}

// NewCompressor returns a compression sink for one rank. All ranks must share
// the same tree (SPMD single-binary assumption). The compressor reports into
// the sink attached at this call (obs.Attach), for its whole life.
func NewCompressor(tree *cst.Tree, rank int, mode timestat.Mode) *Compressor {
	return &Compressor{
		tree:   tree,
		rank:   rank,
		mode:   mode,
		data:   make([]VData, tree.NumVertices()),
		cursor: tree.Root,
		site:   -1,
		obs:    obs.Attached(),
	}
}

func (c *Compressor) d(v *cst.Vertex) *VData { return &c.data[v.GID] }

// noSite panics on a structure marker whose site has no child under the
// cursor. The interpreter emits markers only for the sites the CST keeps
// (cst.Build marks them), so such a marker is a protocol error, not a pruned
// region to step over.
func (c *Compressor) noSite(marker string, site int32) {
	panic(fmt.Sprintf("ctt: %s marker for site %d has no CST child under vertex %d (%v)",
		marker, site, c.cursor.GID, c.cursor.Kind))
}

// LoopEnter implements trace.Sink.
func (c *Compressor) LoopEnter(site int32) {
	child := c.cursor.Child(lang.NodeID(site), cst.NoArm)
	if child == nil {
		c.noSite("loop", site)
	}
	d := c.d(child)
	c.stack = append(c.stack, frame{kind: fLoop, prev: c.cursor, entered: child, savedOpen: d.open})
	c.cursor = child
	d.open = 0
}

// LoopIter implements trace.Sink.
func (c *Compressor) LoopIter(site int32) {
	if c.cursor.Kind != cst.KindLoop || c.cursor.Site != lang.NodeID(site) {
		panic(fmt.Sprintf("ctt: loop iteration marker for site %d at vertex %d (%v)",
			site, c.cursor.GID, c.cursor.Kind))
	}
	c.d(c.cursor).open++
}

// BranchEnter implements trace.Sink.
func (c *Compressor) BranchEnter(site int32, arm int8) {
	first, armV := c.branchArms(site, arm)
	if armV == nil {
		c.noSite(fmt.Sprintf("branch arm %d", arm), site)
	}
	fd := c.d(first)
	c.d(armV).Taken.Add(fd.reach)
	fd.reach++
	c.stack = append(c.stack, frame{kind: fBranch, prev: c.cursor, entered: armV})
	c.cursor = armV
}

// BranchSkip implements trace.Sink.
func (c *Compressor) BranchSkip(site int32) {
	first, _ := c.branchArms(site, cst.NoArm)
	if first == nil {
		c.noSite("branch skip", site)
	}
	c.d(first).reach++
}

// branchArms returns, for a branch site under the cursor, the vertex that
// holds the site's reach counter (its then-arm, else its else-arm, nil when
// the site has no arm there) and the vertex of arm (nil when pruned). The
// arms of one site are adjacent siblings (cst's checkChildren), so one scan
// finds both.
func (c *Compressor) branchArms(site int32, arm int8) (first, armV *cst.Vertex) {
	kids := c.cursor.Children
	for i, v := range kids {
		if v.Site != lang.NodeID(site) {
			continue
		}
		if v.Arm == arm {
			return v, v
		}
		if i+1 < len(kids) && kids[i+1].Site == v.Site && kids[i+1].Arm == arm {
			return v, kids[i+1]
		}
		return v, nil
	}
	return nil, nil
}

// CallEnter implements trace.Sink.
func (c *Compressor) CallEnter(site int32) {
	child := c.cursor.Child(lang.NodeID(site), cst.NoArm)
	if child == nil {
		c.noSite("call", site)
	}
	switch child.Kind {
	case cst.KindCall:
		c.stack = append(c.stack, frame{kind: fCall, prev: c.cursor, entered: child})
		c.cursor = child
		if child.Recursive {
			// Pseudo-loop activation: recursion depth starts at one level.
			c.d(child).open = 1
		}
	case cst.KindRecCall:
		// Loop back: one more recursion level on the matching ancestor.
		c.d(child.Target).open++
		c.stack = append(c.stack, frame{kind: fRecCall, prev: c.cursor, entered: child})
		c.cursor = child.Target
	default:
		panic(fmt.Sprintf("ctt: call marker resolved to %v vertex %d", child.Kind, child.GID))
	}
}

// StructExit implements trace.Sink.
func (c *Compressor) StructExit() {
	if len(c.stack) == 0 {
		panic("ctt: unbalanced structure exit")
	}
	f := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	switch f.kind {
	case fLoop:
		d := c.d(f.entered)
		d.Counts.Append(d.open)
		d.open = f.savedOpen
		c.cursor = f.prev
	case fCall:
		if f.entered.Recursive {
			d := c.d(f.entered)
			d.Counts.Append(d.open)
		}
		c.cursor = f.prev
	default:
		c.cursor = f.prev
	}
}

// CommSite implements trace.Sink.
func (c *Compressor) CommSite(site int32) { c.site = site }

// Event implements trace.Sink.
func (c *Compressor) Event(e *trace.Event) {
	c.events++
	switch e.Op {
	case trace.OpInit, trace.OpFinalize:
		// No call site: these bracket the program and live on the root.
		c.record(c.tree.Root, e)
		return
	}
	if c.site < 0 {
		panic(fmt.Sprintf("ctt: event %v without a preceding CommSite marker", e.Op))
	}
	leaf := c.cursor.Child(lang.NodeID(c.site), cst.NoArm)
	c.site = -1
	if leaf == nil || leaf.Kind != cst.KindComm {
		panic(fmt.Sprintf("ctt: no comm leaf for site under vertex %d (op %v)", c.cursor.GID, e.Op))
	}
	if e.Op.IsNonBlocking() {
		c.reqs.put(e.ReqID, leaf.GID)
		if c.obs != nil {
			occ := int64(c.reqs.live)
			c.tal.reqOcc.Observe(occ)
			if occ > c.tal.reqPeak {
				c.tal.reqPeak = occ
			}
		}
		if e.Op == trace.OpIrecv && e.Wildcard {
			// Paper Section IV-A, non-deterministic events: cache wildcard
			// receives; compression is delayed until the checking function
			// resolves the source. The cache copies the event into recycled
			// slot storage, so repeated wildcard receives do not allocate.
			c.reqs.putWild(e.ReqID, e)
			if c.obs != nil {
				c.tal.wildCached++
				depth := int64(c.reqs.wildLive)
				c.tal.wildDepth.Observe(depth)
				if depth > c.tal.wildPeak {
					c.tal.wildPeak = depth
				}
			}
			return
		}
	}
	if e.Op.IsCompletion() {
		// The one copy on this path: resolution rewrites the request lists,
		// and the caller's event is not ours to change.
		ev := *e
		c.resolveCompletion(&ev)
		c.record(leaf, &ev)
		return
	}
	c.record(leaf, e)
}

// resolveCompletion rewrites request ids to poster GIDs and flushes any
// cached wildcard receives whose sources this completion resolved. The
// rewritten ids land in a reusable scratch buffer; record() copies them out
// only when a new record actually retains them.
func (c *Compressor) resolveCompletion(ev *trace.Event) {
	if cap(c.reqScratch) < len(ev.Reqs) {
		c.reqScratch = make([]int32, len(ev.Reqs), 2*len(ev.Reqs))
	}
	reqs := c.reqScratch[:len(ev.Reqs)]
	for i, id := range ev.Reqs {
		gid, ok := c.reqs.get(id)
		if !ok {
			panic(fmt.Sprintf("ctt: completion of unknown request %d", id))
		}
		reqs[i] = gid
		if cached := c.reqs.takeWild(id); cached != nil {
			if ev.ReqSrcs == nil {
				panic("ctt: wildcard completion without resolved sources")
			}
			cached.Peer = int(ev.ReqSrcs[i])
			c.tal.wildResolved++
			obs.AttachedRecorder().Instant(ftrace.CatCompress, ftrace.NameWildcard,
				int32(c.rank), int64(gid), int64(c.reqs.wildLive))
			c.record(c.tree.ByGID[gid], cached)
		}
		c.reqs.del(id)
	}
	ev.Reqs = reqs
	// Resolved sources live on the receive records; dropping them from the
	// completion record keeps completions identical across iterations.
	ev.ReqSrcs = nil
}

// record merges ev into the last record of v or appends a new one. ev is
// only read: the comparisons below ignore GID, request id and times, so the
// event takes its canonical form only when a new record retains it.
func (c *Compressor) record(v *cst.Vertex, ev *trace.Event) {
	d := c.d(v)
	dur, comp := ev.DurationNS, ev.ComputeNS
	// Open record cycles consume matching events first; a mismatch closes
	// the cycle and falls through to the ordinary paths.
	if d.cyc.open != nil && c.tryFoldCycle(d, ev, dur, comp) {
		c.tal.cycleFolds++
		return
	}
	n := len(d.Records)
	// Only the last unfrozen record is a merge candidate: the paper's
	// window of one, the width that keeps replay order exact.
	if n > d.cyc.frozen && n > 0 {
		if last := d.Records[n-1]; last.Peers == nil && last.Ev.SameParams(ev) {
			last.Count++
			last.Time.Add(dur)
			last.Compute.Add(comp)
			c.tal.mergeHits++
			return
		}
	}
	rel := 0
	if ev.Op.IsPointToPoint() {
		rel = ev.Peer - c.rank
	}
	// Peer-pattern folding: a point-to-point record whose parameters match
	// except for the partner extends the last record's peer cycle instead
	// of opening a new record (CG butterflies, MG level neighbors).
	if n > d.cyc.frozen && n > 0 && ev.Op.IsPointToPoint() {
		last := d.Records[n-1]
		if last.Ev.Op.IsPointToPoint() && last.Ev.SameParamsExceptPeer(ev) {
			if last.Peers == nil {
				last.Peers = newPeerPattern(int32(last.PeerRel), last.Count)
			}
			if last.Peers != nil {
				last.Peers.Append(int32(rel))
				last.Count++
				last.Time.Add(dur)
				last.Compute.Add(comp)
				c.tal.patternFolds++
				return
			}
		}
	}
	rec := c.newRecord(d)
	rec.Ev = *ev
	rec.Ev.GID = v.GID // the CommRecord.Ev invariant; raw Init/Finalize arrive with -1
	rec.Ev.DurationNS = 0
	rec.Ev.ComputeNS = 0
	rec.Ev.ReqID = -1
	if len(ev.Reqs) > 0 {
		// ev.Reqs may alias the compressor's completion scratch buffer; a
		// retained record must own its copy. New records are rare (cold
		// path), so this copy does not affect steady-state allocation.
		rec.Ev.Reqs = append([]int32(nil), ev.Reqs...)
	}
	rec.PeerRel = rel
	rec.Count = 1
	rec.Time = timestat.Make(c.mode)
	rec.Time.Add(dur)
	rec.Compute = timestat.Make(timestat.ModeMeanStddev)
	rec.Compute.Add(comp)
	c.tal.newRecords++
	c.tryOpenCycle(d)
}

// newRecord appends a zeroed record from the rank's arena to d's records.
// Callers fill in the fields afterwards.
func (c *Compressor) newRecord(d *VData) *CommRecord {
	r := c.recs.alloc()
	d.Records = append(d.Records, r)
	return r
}

// Finalize implements trace.Sink.
func (c *Compressor) Finalize() {
	if len(c.stack) != 0 {
		panic(fmt.Sprintf("ctt: finalize with %d open structures", len(c.stack)))
	}
	if c.reqs.wildLive != 0 {
		panic(fmt.Sprintf("ctt: finalize with %d unresolved wildcard receives", c.reqs.wildLive))
	}
	c.finished = true
}

// Finish extracts the rank's compressed trace tree. It must be called after
// the run completes (Finalize observed).
func (c *Compressor) Finish() *RankCTT {
	if !c.finished {
		panic("ctt: Finish before Finalize")
	}
	tsp := obs.AttachedRecorder().Begin(ftrace.CatCompress, ftrace.NameFinish, int32(c.rank))
	exec := 0
	for i := range c.data {
		d := &c.data[i]
		d.reach = 0
		if d.cyc.open != nil {
			c.closeCycle(d)
		}
		for _, r := range d.Records {
			if r.Peers != nil {
				r.Peers.Compress()
			}
		}
		if d.Executed() {
			exec++
		}
		if c.obs.Enabled() {
			c.strideStats(&d.Counts)
			c.strideStats(&d.Taken.Vector)
		}
	}
	c.flushTally()
	tsp.End(c.events, int64(exec))
	return &RankCTT{
		Rank:       c.rank,
		Tree:       c.tree,
		TreeHash:   c.tree.Hash(),
		Data:       c.data,
		EventCount: c.events,
		Executed:   exec,
	}
}

// flushTally folds the per-event tallies into the shared sink in one batch
// of atomic adds. Called once, at Finish; until then the compressor's event
// counters are local to the rank.
func (c *Compressor) flushTally() {
	if c.obs == nil {
		return
	}
	c.obs.Add(obs.CompEvents, c.events)
	c.obs.Add(obs.CompMergeHits, c.tal.mergeHits)
	c.obs.Add(obs.CompNewRecords, c.tal.newRecords)
	c.obs.Add(obs.CompPeerPatternFolds, c.tal.patternFolds)
	c.obs.Add(obs.CompCycleFolds, c.tal.cycleFolds)
	c.obs.Add(obs.CompWildcardCached, c.tal.wildCached)
	c.obs.Add(obs.CompWildcardResolved, c.tal.wildResolved)
	c.obs.SetMax(obs.CompReqPeak, c.tal.reqPeak)
	c.obs.SetMax(obs.CompWildPeak, c.tal.wildPeak)
	c.obs.FlushHist(obs.HistReqOccupancy, &c.tal.reqOcc)
	c.obs.FlushHist(obs.HistWildcardDepth, &c.tal.wildDepth)
	c.tal = compTally{}
}

// strideStats folds one finished stride vector into the sink's compression
// accounting: values stored, runs holding them, and the bytes the run
// encoding saved over (or wasted against) the raw 8-bytes-per-value layout.
// Called only at Finish, off every hot path, and only with a sink attached.
func (c *Compressor) strideStats(v *stride.Vector) {
	n := v.Len()
	if n == 0 {
		return
	}
	c.obs.Add(obs.StrideValues, n)
	c.obs.Add(obs.StrideRuns, int64(v.RunCount()))
	if saved := v.RawBytes() - v.SizeBytes(); saved > 0 {
		c.obs.Add(obs.StrideBytesSaved, saved)
	} else {
		c.obs.Inc(obs.StrideIncompressible)
	}
}

// MemoryBytes reports the heap the compressor holds, by capacity, for the
// intra-process overhead experiment (paper Figure 16's memory curves).
func (c *Compressor) MemoryBytes() int64 {
	const ptr = int64(unsafe.Sizeof(uintptr(0)))
	n := int64(unsafe.Sizeof(*c))
	n += int64(cap(c.data)) * int64(unsafe.Sizeof(VData{}))
	n += int64(c.recs.chunks) * recordChunk * int64(unsafe.Sizeof(CommRecord{}))
	n += int64(cap(c.recs.free)) * ptr
	for i := range c.data {
		d := &c.data[i]
		n += int64(cap(d.Records)) * ptr
		n += int64(cap(d.Cycles)) * int64(unsafe.Sizeof(Cycle{}))
		n += d.Counts.HeapBytes() + d.Taken.HeapBytes()
		for _, r := range d.Records {
			n += 4 * int64(cap(r.Ev.Reqs)+cap(r.Ev.ReqSrcs)+cap(r.Time.Hist)+cap(r.Compute.Hist))
			if p := r.Peers; p != nil {
				n += int64(unsafe.Sizeof(*p)) + 4*int64(cap(p.Period)+cap(p.raw))
			}
		}
	}
	n += int64(cap(c.stack)) * int64(unsafe.Sizeof(frame{}))
	n += c.reqs.memoryBytes()
	n += 4 * int64(cap(c.reqScratch))
	return n
}
