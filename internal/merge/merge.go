// Package merge implements CYPRESS's inter-process trace compression (paper
// Section IV-B): per-process compressed trace trees share the structure of
// the single static CST, so merging two trees is a lockstep pre-order walk
// comparing only the data at corresponding vertices — O(n) per pair instead
// of the O(n²) alignment dynamic-only tools need. A parallel binary
// reduction combines P per-rank trees with O(n log P) span.
//
// Merged vertex data is annotated with stride-compressed rank sets; process
// ranks inside point-to-point records are unified with the relative ranking
// encoding (current rank ± constant) whenever absolute peers differ.
//
// Every merge decision is two steps (see DESIGN.md "Keyed merge"): unequal
// encoding-invariant keys prove two payloads incompatible; otherwise the
// record walk compatible() decides, and unify folds. The key can only say
// no, so the merge is exact. A vertex with many rank groups indexes its left
// entries by key and a right entry probes only the ones that share its own
// (see entryLists), instead of walking every group.
package merge

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/fp"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/rankset"
	"repro/internal/stride"
	"repro/internal/timestat"
)

// Entry is one rank-group's data for a vertex: every rank in Ranks produced
// exactly this data (paper Figure 13's "<p0,p1: k>" annotations). Data is a
// view onto payload storage: a rank's tables while the merge runs (no
// per-rank, per-vertex copy), the decoder's slabs after a decode. Ranks
// belongs to this entry alone on every path that builds one, so the merge
// extends it in place (mergeRanks).
type Entry struct {
	Ranks *rankset.Set
	Data  ctt.VData
}

// Merged is a job-wide compressed trace tree.
type Merged struct {
	Tree     *cst.Tree
	TreeHash uint64
	NumRanks int
	// noRel disables the relative-ranking peer encoding (ablation only).
	noRel bool
	// Entries[gid] lists rank-groups in ascending order of first rank.
	Entries [][]Entry
	// EventCount is the total number of MPI events across all ranks.
	EventCount int64
	// proj, when non-nil, is the rank projection a selective decode served
	// (see DecodeSelectAuto): Entries lists only the groups a selected rank
	// belongs to, and only the selected ranks replay.
	proj *Selection
}

// executedCount returns the number of vertices holding dynamic data, using
// the count precomputed by the compressor when available.
func executedCount(c *ctt.RankCTT) int {
	if c.Executed > 0 {
		return c.Executed
	}
	n := 0
	for gid := range c.CST.ByGID {
		if c.Data(int32(gid)).Executed() {
			n++
		}
	}
	return n
}

// FromRank wraps a single rank's CTT as a one-rank merged tree. All entries
// of the rank share one backing slice and one rank-set slab — a handful of
// allocations per rank instead of a few per vertex — and every entry has its
// own set, so the reduction above extends rank sets in place at every level.
// (The parallel reduction batches further, carving leaf trees out of chunked
// slabs and recycling right-leaf storage; see leafCtx.)
func FromRank(c *ctt.RankCTT) *Merged {
	n := executedCount(c)
	m := &Merged{}
	m.initFromRank(c, make([][]Entry, c.CST.NumVertices()), make([]Entry, n), make([]rankset.Set, n), true)
	return m
}

// initFromRank populates m as the one-rank tree of c, writing entries into
// the provided backing storage: lists (one slice header per vertex), backing
// and sets (executedCount(c) elements each). fresh says the backing is
// zero-valued; recycled scratch storage (fresh=false) is reset as it is
// rewritten, so every word of m's state after the call is independent of the
// storage's previous use.
func (m *Merged) initFromRank(c *ctt.RankCTT, lists [][]Entry, backing []Entry, sets []rankset.Set, fresh bool) {
	*m = Merged{
		Tree:       c.CST,
		TreeHash:   c.TreeHash,
		NumRanks:   1,
		Entries:    lists,
		EventCount: c.EventCount,
	}
	k := 0
	for gid := range m.Entries {
		d := c.Data(int32(gid))
		if !d.Executed() {
			m.Entries[gid] = nil
			continue
		}
		e := &backing[k]
		if fresh {
			sets[k].SeedSingle(c.Rank)
		} else {
			sets[k].InitSingle(c.Rank)
		}
		*e = Entry{Ranks: &sets[k], Data: d}
		m.Entries[gid] = backing[k : k+1 : k+1]
		k++
	}
}

// slabChunk is the number of ranks whose durable leaf trees share one set of
// slabs in leafCtx. Chunking balances allocation count (a handful per 64
// ranks instead of per rank) against garbage-collector liveness: the
// reduction consumes most leaf storage quickly — only the left spine
// survives — and per-chunk slabs let the collector reclaim consumed chunks
// mid-reduction instead of keeping one job-wide slab pinned by the
// survivors.
const slabChunk = 64

// leafCtx builds the leaf trees of one reduction lane lazily, as the
// depth-first recursion reaches them. Left-hand leaves — the accumulators
// that survive as the left spine — are carved durably out of chunked slabs.
// Right-hand leaves are consumed by the very next Pair and leave nothing of
// their storage behind: a merged entry copies rank-set values and folds
// statistics by value, and an unmergeable entry the Pair appends to the left
// tree gets its own copy of its one-rank set (entryLists). So every right
// leaf of a lane is built into one recycled scratch tree. This halves leaf
// storage: the dominant term in the reduction's allocation footprint.
//
// A leafCtx is single-goroutine state: the parallel reduction hands each
// spawned lane its own.
type leafCtx struct {
	ctts  []*ctt.RankCTT
	noRel bool
	keyOn bool // see mergeState.keyOn

	// Durable slab cursors, refilled a chunk at a time.
	merged  []Merged
	lists   [][]Entry
	entries []Entry
	sets    []rankset.Set

	// Recycled right-leaf storage; scratch is nil until the lane's first
	// right leaf.
	scratch        *Merged
	scratchLists   [][]Entry
	scratchEntries []Entry
	scratchSets    []rankset.Set
	// copies is the slab the rank sets of entries a Pair appends from the
	// scratch leaf are carved from (see mergeState.copies).
	copies []rankset.Set

	// probe is the lane's entryLists scratch, reused by every Pair on it.
	probe probeScratch
}

// durableLeaf builds rank i's leaf tree out of the chunked slabs.
func (x *leafCtx) durableLeaf(i int) *Merged {
	c := x.ctts[i]
	nl, ne := c.CST.NumVertices(), executedCount(c)
	if len(x.merged) == 0 {
		x.merged = make([]Merged, slabChunk)
	}
	if len(x.lists) < nl {
		x.lists = make([][]Entry, nl*slabChunk)
	}
	if len(x.entries) < ne {
		// Entry and set slabs are sized by the current leaf's entry count;
		// jobs whose ranks execute different vertex sets just refill sooner.
		x.entries = make([]Entry, ne*slabChunk)
		x.sets = make([]rankset.Set, ne*slabChunk)
	}
	m := &x.merged[0]
	x.merged = x.merged[1:]
	lists := x.lists[:nl:nl]
	x.lists = x.lists[nl:]
	entries := x.entries[:ne:ne]
	x.entries = x.entries[ne:]
	sets := x.sets[:ne:ne]
	x.sets = x.sets[ne:]
	m.initFromRank(c, lists, entries, sets, true)
	m.noRel = x.noRel
	return m
}

// scratchLeaf builds rank i's leaf tree into the recycled scratch storage.
// The storage is sized for every vertex of the tree, so whichever vertices a
// rank executed, one scratch serves the whole lane.
func (x *leafCtx) scratchLeaf(i int) *Merged {
	c := x.ctts[i]
	nl, ne := c.CST.NumVertices(), executedCount(c)
	fresh := false
	if x.scratch == nil || len(x.scratchLists) < nl {
		x.scratch = new(Merged)
		x.scratchLists = make([][]Entry, nl)
		x.scratchEntries = make([]Entry, nl)
		x.scratchSets = make([]rankset.Set, nl)
		fresh = true
	} else {
		obs.Attached().Inc(obs.MergeScratchReuses)
	}
	x.scratch.initFromRank(c,
		x.scratchLists[:nl:nl],
		x.scratchEntries[:ne:ne],
		x.scratchSets[:ne:ne], fresh)
	x.scratch.noRel = x.noRel
	return x.scratch
}

// pair merges b into a; b is the lane's scratch tree when it is a right leaf.
func (x *leafCtx) pair(a, b *Merged) (*Merged, error) {
	var copies *[]rankset.Set
	if b == x.scratch {
		copies = &x.copies
	}
	return pair(a, b, &x.probe, x.keyOn, copies)
}

// Pair merges b into a and returns a. Both operands are consumed: the
// result aliases and mutates their data. Trees must be identical (SPMD).
func Pair(a, b *Merged) (*Merged, error) {
	return pair(a, b, new(probeScratch), true, nil)
}

// pair is Pair with its working storage and configuration: sc is storage the
// caller may hand to its next Pair, keyOn is mergeState.keyOn, and copies is
// mergeState.copies, non-nil when b's rank sets are recycled storage that
// must not survive in a.
func pair(a, b *Merged, sc *probeScratch, keyOn bool, copies *[]rankset.Set) (*Merged, error) {
	if a.TreeHash != b.TreeHash {
		return nil, fmt.Errorf("merge: CST hash mismatch: %x vs %x", a.TreeHash, b.TreeHash)
	}
	if len(a.Entries) != len(b.Entries) {
		return nil, fmt.Errorf("merge: vertex count mismatch: %d vs %d", len(a.Entries), len(b.Entries))
	}
	// Merging reads and mutates every payload in place.
	if err := a.whole("merge"); err != nil {
		return nil, err
	}
	if err := b.whole("merge"); err != nil {
		return nil, err
	}
	noRel := a.noRel || b.noRel
	a.noRel = noRel
	st := mergeState{noRel: noRel, keyOn: keyOn, copies: copies, sc: sc}
	obs.Attached().Inc(obs.MergePairs)
	ranks := a.NumRanks + b.NumRanks
	// Lane = reduction depth (log2 of the merged span), so Perfetto renders
	// the reduction tree as one swimlane per level.
	tsp := obs.AttachedRecorder().Begin(ftrace.CatMerge, ftrace.NamePair, int32(bits.Len(uint(ranks))-1))
	for gid := range a.Entries {
		a.Entries[gid] = st.entryLists(a.Entries[gid], b.Entries[gid])
	}
	st.flush()
	tsp.End(int64(ranks), st.walkRejects)
	a.NumRanks += b.NumRanks
	a.EventCount += b.EventCount
	return a, nil
}

// mergeState carries one Pair's configuration and tallies; sc is the
// longer-lived scratch behind it.
type mergeState struct {
	noRel bool
	// keyOn lets key inequality reject a probe, one at a time in tryMerge
	// and wholesale through entryLists' index. Every merge entry point sets
	// it (the key holds under noRel too); with it off, every probe is a walk,
	// which is the scan the tests hold the keyed probe to.
	keyOn bool
	// copies is set when the right tree is a lane's recycled scratch leaf:
	// an entry appended unmerged gets a copy of its rank set carved from
	// this slab, so nothing of the scratch storage survives in the left tree.
	copies *[]rankset.Set
	sc     *probeScratch

	// Per-Pair observation tallies, accumulated in plain fields on the hot
	// entry loops and flushed to the attached sink once per Pair (see obs.go).
	keyRejects  int64 // probes settled by key inequality, made or skipped by the index
	walks       int64 // compatible() calls
	walkRejects int64 // walks compatible() refused
	unmerged    int64 // right entries appended unmerged (new rank group)
	poisonings  int64 // records poisoned RelUnsafe by an absolute unification
}

// indexMin is the left-list length from which entryLists probes through the
// key index instead of scanning. A scan already settles each probe by two
// memoized keys, so on a short list it beats the map operations that build
// the index, and a one-entry list — every vertex of a job that folds — must
// touch no map at all. merge.All, ms, SP-1024 / MG-512 (parent 207 / 5.2):
// 2 → 14.3 / 4.4, 4 → 12.1 / 3.9, 8 → 10.6 / 3.6, 16 → 10.8 / 3.5, 32 → 11.2
// / 3.6; LU-128 never has eight groups at a vertex and stays on the scan.
const indexMin = 8

// probeScratch is entryLists' working storage: the rel buffer of the walk
// and the key index of the vertex being merged. One per reduction lane
// (leafCtx), so a steady-state Pair allocates none of it.
type probeScratch struct {
	relBuf []bool
	// chains maps a key to the first and last left index carrying it; next
	// links each left index to the following one with the same key (-1 ends
	// the chain), so a chain lists its entries in ascending order — the order
	// the scan probes them in.
	chains map[fp.Hash]chain
	next   []int32
}

type chain struct{ head, tail int32 }

// index rebuilds the key index over left.
func (sc *probeScratch) index(left []Entry) {
	if sc.chains == nil {
		sc.chains = make(map[fp.Hash]chain)
	}
	clear(sc.chains)
	sc.next = sc.next[:0]
	for i := range left {
		sc.add(left[i].Data.InvariantKeyCached())
	}
}

// add indexes the next left entry: the list grows only at its end.
func (sc *probeScratch) add(key fp.Hash) {
	i := int32(len(sc.next))
	sc.next = append(sc.next, -1)
	c, ok := sc.chains[key]
	if ok {
		sc.next[c.tail] = i
		c.tail = i
	} else {
		c = chain{head: i, tail: i}
	}
	sc.chains[key] = c
}

// first returns the lowest left index whose key is key, or -1.
func (sc *probeScratch) first(key fp.Hash) int32 {
	if c, ok := sc.chains[key]; ok {
		return c.head
	}
	return -1
}

// entryLists folds right-hand entries into the left-hand list, unifying
// rank groups whose data is compatible. Left entries are probed in order and
// the first compatible one wins. From indexMin left entries on, a right entry
// probes only the left entries that share its invariant key: every entry the
// index leaves out has an unequal key and so would have been rejected, which
// makes the winner, each rel/abs/poison decision and the output bytes those
// of the full scan. The entries left out are tallied as key rejects, so
// rejects and walks still add up to the probes the scan would have made.
func (st *mergeState) entryLists(left, right []Entry) []Entry {
	sc := st.sc
	indexed := false
	for ri := range right {
		re := &right[ri]
		at := -1
		if st.keyOn && len(left) >= indexMin {
			if !indexed {
				sc.index(left)
				indexed = true
			}
			key := re.Data.InvariantKeyCached()
			tried := 0
			for i := sc.first(key); i >= 0; i = sc.next[i] {
				tried++
				if st.tryMerge(&left[i], re) {
					at = int(i)
					break
				}
			}
			scanned := len(left)
			if at >= 0 {
				scanned = at + 1
			} else {
				sc.add(key)
			}
			st.keyRejects += int64(scanned - tried)
		} else {
			for i := range left {
				if st.tryMerge(&left[i], re) {
					at = i
					break
				}
			}
		}
		if at < 0 {
			e := *re
			if st.copies != nil {
				e.Ranks = st.copySet(e.Ranks)
			}
			left = append(left, e)
			st.unmerged++
		}
	}
	return left
}

// tryMerge unifies re into le when their payloads are compatible, reporting
// whether it did: unequal keys prove them incompatible, and otherwise the
// walk decides.
func (st *mergeState) tryMerge(le, re *Entry) bool {
	if st.keyOn && le.Data.InvariantKeyCached() != re.Data.InvariantKeyCached() {
		st.keyRejects++
		return false
	}
	st.walks++
	rel, ok := st.compatible(le.Data, re.Data)
	if !ok {
		st.walkRejects++
		return false
	}
	if unify(le.Data, re.Data, rel) {
		st.poisonings++
	}
	mergeRanks(le, re)
	return true
}

// copySet returns a copy of s carved from the lane's copy slab.
func (st *mergeState) copySet(s *rankset.Set) *rankset.Set {
	slab := st.copies
	if len(*slab) == 0 {
		*slab = make([]rankset.Set, slabChunk)
	}
	c := &(*slab)[0]
	*slab = (*slab)[1:]
	c.Load(s.Runs())
	return c
}

// mergeRanks extends le's rank set with re's. The reduction always merges a
// lower-rank half with a higher-rank half, so the in-place append fast path
// applies at every level (an entry's set is its own, see Entry); the append's
// run structure is canonical (identical to rebuilding from sorted members),
// so serialized rank sets are byte-stable regardless of which path ran.
func mergeRanks(le, re *Entry) {
	if le.Ranks.TryAppend(re.Ranks) {
		return
	}
	le.Ranks = rankset.Union(le.Ranks, re.Ranks)
}

// compatible reports whether two vertex-data payloads are mergeable, and for
// which records the relative-ranking encoding is required (rel[i] true means
// record i unifies relatively). Compatibility requires identical control
// data (loop counts, taken sets) and pairwise-compatible records. The
// returned slice aliases the state's scratch buffer and is valid until the
// next call.
func (st *mergeState) compatible(a, b ctt.VData) ([]bool, bool) {
	if !a.CtlEqual(b) {
		return nil, false
	}
	ar, br := a.Records(), b.Records()
	ac, bc := a.Cycles(), b.Cycles()
	if len(ar) != len(br) || len(ac) != len(bc) {
		return nil, false
	}
	for i := range ac {
		if ac[i] != bc[i] {
			return nil, false
		}
	}
	if cap(st.sc.relBuf) < len(ar) {
		st.sc.relBuf = make([]bool, len(ar))
	}
	rel := st.sc.relBuf[:len(ar)]
	for i := range ar {
		r, ok := recordCompatible(ar[i], br[i], st.noRel)
		if !ok {
			return nil, false
		}
		rel[i] = r
	}
	return rel, true
}

// recordCompatible reports whether two records carry the same operation
// stream, and whether unification needs the relative peer encoding.
func recordCompatible(a, b *ctt.CommRecord, noRel bool) (rel, ok bool) {
	ea, eb := &a.Ev, &b.Ev
	if a.Count != b.Count || ea.Op != eb.Op || ea.Size != eb.Size ||
		ea.Tag != eb.Tag || ea.Comm != eb.Comm || ea.Wildcard != eb.Wildcard ||
		len(ea.Reqs) != len(eb.Reqs) {
		return false, false
	}
	for i := range ea.Reqs {
		if ea.Reqs[i] != eb.Reqs[i] {
			return false, false
		}
	}
	if !ea.Op.IsPointToPoint() {
		// Roots of collectives and NoPeer sentinels must match absolutely.
		return false, ea.Peer == eb.Peer
	}
	if (a.Peers != nil) != (b.Peers != nil) {
		return false, false
	}
	if a.Peers != nil {
		// Peer-pattern records are rank-relative by construction.
		return true, a.Peers.Equal(b.Peers)
	}
	switch {
	case a.RelEncoded || b.RelEncoded:
		// A record poisoned RelUnsafe carries a PeerRel valid only for the
		// first rank of its group; unifying it relatively would silently
		// misattribute peers, so the pairing is rejected outright.
		if a.RelUnsafe || b.RelUnsafe {
			return false, false
		}
		return true, a.PeerRel == b.PeerRel
	case ea.Peer == eb.Peer:
		return false, true
	case noRel, a.RelUnsafe, b.RelUnsafe:
		return false, false
	default:
		// Absolute peers differ; the relative encoding may still unify them
		// (paper: "current process rank plus or minus a constant").
		return true, a.PeerRel == b.PeerRel
	}
}

// unify folds b's volatile payload (time statistics) into a and applies the
// relative encoding where needed. Records that unify absolutely despite
// disagreeing relative encodings are poisoned RelUnsafe (their PeerRel is
// stale for the widened group; see recordCompatible). It reports whether any
// record was poisoned.
func unify(a, b ctt.VData, rel []bool) (poisoned bool) {
	ar, br := a.Records(), b.Records()
	for i := range ar {
		ra, rb := ar[i], br[i]
		if rel[i] {
			ra.RelEncoded = true
		} else if ra.Ev.Op.IsPointToPoint() && ra.Peers == nil && !ra.RelUnsafe {
			if rb.RelUnsafe || ra.PeerRel != rb.PeerRel {
				ra.RelUnsafe = true
				poisoned = true
			}
		}
		ra.Time.Merge(&rb.Time)
		ra.Compute.Merge(&rb.Compute)
	}
	return poisoned
}

// AllNoRelative is All with the relative-ranking encoding disabled, for the
// ablation benchmark quantifying how much that encoding contributes. It uses
// the same parallel binary reduction as All, so the ablation isolates the
// encoding's effect rather than also changing the merge schedule.
func AllNoRelative(ctts []*ctt.RankCTT, workers int) (*Merged, error) {
	return all(ctts, workers, true, true)
}

// All merges the per-rank trees of a job into one tree using a parallel
// binary reduction (paper: "We can use a parallel algorithm to merge all the
// CTTs", giving O(n log P)). workers <= 0 uses GOMAXPROCS.
func All(ctts []*ctt.RankCTT, workers int) (*Merged, error) {
	return all(ctts, workers, false, true)
}

// all is the shared reduction behind All and AllNoRelative. A bounded
// semaphore admits at most `workers` concurrent goroutines; when the
// semaphore is saturated the left half is reduced inline, so the recursion
// degrades gracefully to the serial schedule instead of blocking.
//
// Leaves are built lazily as the depth-first recursion reaches them (see
// leafCtx), so right-hand leaf storage is recycled and consumed leaf trees
// die young instead of sitting in an up-front array until the reduction
// passes them. Each spawned goroutine gets its own leafCtx; the recursion's
// in-order schedule guarantees a lane's scratch leaf is consumed by the very
// next Pair on that lane before another scratch leaf is built. keyOn is
// mergeState.keyOn.
func all(ctts []*ctt.RankCTT, workers int, noRel, keyOn bool) (*Merged, error) {
	if len(ctts) == 0 {
		return nil, fmt.Errorf("merge: no trees")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var reduce func(x *leafCtx, lo, hi int, rightRole bool) (*Merged, error)
	reduce = func(x *leafCtx, lo, hi int, rightRole bool) (*Merged, error) {
		if hi-lo == 1 {
			if rightRole {
				return x.scratchLeaf(lo), nil
			}
			return x.durableLeaf(lo), nil
		}
		mid := (lo + hi) / 2
		var left, right *Merged
		var lerr, rerr error
		if workers > 1 {
			var wg sync.WaitGroup
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					left, lerr = reduce(&leafCtx{ctts: ctts, noRel: noRel, keyOn: keyOn}, lo, mid, false)
				}()
			default:
				left, lerr = reduce(x, lo, mid, false)
			}
			right, rerr = reduce(x, mid, hi, true)
			wg.Wait()
		} else {
			// Single-worker schedule: skip the goroutine machinery entirely
			// (one closure + waitgroup per internal node otherwise).
			left, lerr = reduce(x, lo, mid, false)
			right, rerr = reduce(x, mid, hi, true)
		}
		if lerr != nil {
			return nil, lerr
		}
		if rerr != nil {
			return nil, rerr
		}
		return x.pair(left, right)
	}
	tsp := obs.AttachedRecorder().Begin(ftrace.CatMerge, ftrace.NameReduce, 0)
	m, err := reduce(&leafCtx{ctts: ctts, noRel: noRel, keyOn: keyOn}, 0, len(ctts), false)
	tsp.End(int64(len(ctts)), int64(workers))
	return m, err
}

// Serial merges without parallelism, for the ablation benchmark.
func Serial(ctts []*ctt.RankCTT) (*Merged, error) { return serial(ctts, true) }

// serial is Serial with mergeState.keyOn as a parameter.
func serial(ctts []*ctt.RankCTT, keyOn bool) (*Merged, error) {
	if len(ctts) == 0 {
		return nil, fmt.Errorf("merge: no trees")
	}
	acc := FromRank(ctts[0])
	var sc probeScratch
	for _, c := range ctts[1:] {
		var err error
		acc, err = pair(acc, FromRank(c), &sc, keyOn, nil)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// GroupCount returns the total number of rank-group entries, a measure of
// how SPMD-uniform the job was (1 group per executed vertex is ideal).
func (m *Merged) GroupCount() int {
	n := 0
	for _, es := range m.Entries {
		n += len(es)
	}
	return n
}

// rankView adapts one rank's view of the merged tree to replay.Source.
type rankView struct {
	m    *Merged
	rank int
}

// ForRank returns a replay source for one rank of the merged tree. On a
// projected tree only a selected rank's source is whole: replay.Source has no
// error channel, so a vertex whose group the projection dropped reads as
// unexecuted. The Streamer refuses such a rank instead.
func (m *Merged) ForRank(rank int) rankView { return rankView{m, rank} }

// data returns the rank's payload at gid, the zero view when the rank never
// executed the vertex.
func (v rankView) data(gid int32) ctt.VData {
	es := v.m.Entries[gid]
	for i := range es {
		if es[i].Ranks.Contains(v.rank) {
			return es[i].Data
		}
	}
	return ctt.VData{}
}

// Tree implements replay.Source.
func (v rankView) Tree() *cst.Tree { return v.m.Tree }

// Counts implements replay.Source.
func (v rankView) Counts(gid int32) *stride.Vector { return v.data(gid).Counts() }

// Taken implements replay.Source.
func (v rankView) Taken(gid int32) *stride.Set { return v.data(gid).Taken() }

// Records implements replay.Source.
func (v rankView) Records(gid int32) []*ctt.CommRecord { return v.data(gid).Records() }

// Cycles implements replay.Source.
func (v rankView) Cycles(gid int32) []ctt.Cycle { return v.data(gid).Cycles() }

// statMode guesses the timestat mode from the first record (for encode).
func (m *Merged) statMode() timestat.Mode {
	for _, es := range m.Entries {
		for _, e := range es {
			for _, r := range e.Data.Records() {
				if r.Time.Hist != nil {
					return timestat.ModeHistogram
				}
				return timestat.ModeMeanStddev
			}
		}
	}
	return timestat.ModeMeanStddev
}
