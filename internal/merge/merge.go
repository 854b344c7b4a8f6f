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
// The reduction is fingerprint-accelerated (hash-consing of vertex data, see
// DESIGN.md "Fingerprint merge"): each entry caches two 64-bit structural
// fingerprints of its payload, one per unification encoding, so compatible
// payloads — the overwhelmingly common SPMD case — are recognized in O(1)
// instead of walking every record. Fingerprint equality plus O(1) shape
// guards implies the exhaustive walk would succeed with identical per-record
// decisions; a mismatch falls back to the walk, so fingerprinting never
// changes grouping, only the cost of discovering it. A third hash, the
// encoding-invariant key, works the other way round: unequal keys prove two
// payloads incompatible, so a vertex with many rank groups indexes its left
// entries by key and a right entry probes only the ones that share its own
// (see entryLists), instead of walking every group. Whole trees carry a
// span fingerprint over their entry fingerprints, letting a reduction step
// over two uniform trees skip even the per-vertex compatibility checks.
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

// fingerprintEnabled gates the fingerprint fast paths. It exists so the
// equivalence tests can force the exhaustive path and compare outputs; the
// fast paths are otherwise always on. Toggling it between FromRank and Pair
// calls over the same trees is not supported (entries built while disabled
// carry no fingerprints and permanently use the exhaustive path).
var fingerprintEnabled = true

// Entry is one rank-group's data for a vertex: every rank in Ranks produced
// exactly this data (paper Figure 13's "<p0,p1: k>" annotations).
type Entry struct {
	Ranks *rankset.Set
	Data  *ctt.VData

	// Fingerprint cache (see DESIGN.md "Fingerprint merge"). fpRel/fpAbs are
	// the payload's structural fingerprints under the relative and absolute
	// unification encodings; they are recomputed incrementally — only when a
	// merge actually changes a record's encoding class — not per comparison.
	// fpAbs is computed lazily on the first relative-fingerprint mismatch:
	// identical-SPMD reductions never need it, and it would otherwise double
	// the leaf fingerprinting cost.
	fpRel   fp.Hash
	fpAbs   fp.Hash
	fpOK    bool // fpRel computed (false for decoded trees)
	absDone bool // fpAbs/absOK computed
	absOK   bool // fpAbs valid: no plain p2p record has been rel-encoded
	// owns marks that Ranks storage belongs exclusively to this entry and may
	// be extended in place. FromRank shares one Set across all vertices of a
	// rank, so entries start not owning; the first union copies.
	owns bool
	// lazy is non-zero for an entry whose payload DecodeSelectAuto skipped: Data
	// stays nil until the section is materialized from slot lazy-1 of the
	// tree's lazyPayloads (see entryData). Zero for eagerly decoded and
	// merge-built entries.
	lazy int32
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

	// treeRel spans the per-entry relative fingerprints of the whole tree
	// (per vertex: entry count, then each entry's fpRel). Two uniform trees
	// with equal spans merge without any per-vertex comparisons. treeOK is
	// false when the span is stale or entries lack fingerprints.
	treeRel fp.Hash
	treeOK  bool
	// uniform reports at most one entry per vertex, the precondition for the
	// whole-tree fast path (positional pairing equals scan-order pairing).
	uniform bool
	// groups caches GroupCount as an O(1) shape guard for the span compare.
	groups int
	// lazy, when non-nil, holds the retained encoding and the byte ranges of
	// the payload sections a selective decode skipped (see DecodeSelectAuto).
	lazy *lazyPayloads
}

// executedCount returns the number of vertices holding dynamic data, using
// the count precomputed by the compressor when available.
func executedCount(c *ctt.RankCTT) int {
	if c.Executed > 0 {
		return c.Executed
	}
	n := 0
	for gid := range c.Data {
		if c.Data[gid].Executed() {
			n++
		}
	}
	return n
}

// FromRank wraps a single rank's CTT as a one-rank merged tree. All entries
// of the rank share one backing slice and one rank-set slab — a handful of
// allocations per rank instead of a few per vertex — and every entry owns
// its set, so the reduction above extends rank sets in place at every level.
// (The parallel reduction batches further, carving leaf trees out of chunked
// slabs and recycling right-leaf storage; see leafCtx.)
func FromRank(c *ctt.RankCTT) *Merged {
	n := executedCount(c)
	m := &Merged{}
	m.initFromRank(c, make([][]Entry, len(c.Data)), make([]Entry, n), make([]rankset.Set, n), true)
	return m
}

// initFromRank populates m as the one-rank tree of c, writing entries into
// the provided backing storage: lists (len(c.Data) slice headers), backing
// and sets (executedCount(c) elements each). fresh says the backing is
// zero-valued; recycled scratch storage (fresh=false) is reset as it is
// rewritten, so every word of m's state after the call is independent of the
// storage's previous use.
func (m *Merged) initFromRank(c *ctt.RankCTT, lists [][]Entry, backing []Entry, sets []rankset.Set, fresh bool) {
	*m = Merged{
		Tree:       c.Tree,
		TreeHash:   c.TreeHash,
		NumRanks:   1,
		Entries:    lists,
		EventCount: c.EventCount,
	}
	fpOn := fingerprintEnabled
	k := 0
	for gid := range c.Data {
		d := &c.Data[gid]
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
		*e = Entry{Ranks: &sets[k], Data: d, owns: true}
		if fpOn {
			e.fpRel = d.FingerprintRelCached()
			e.fpOK = true
		}
		m.Entries[gid] = backing[k : k+1 : k+1]
		k++
	}
	if fpOn {
		// The rank tree's memoized span matches refreshSummary's schema
		// (vertex id, entry count, entry fingerprint per executed vertex).
		m.treeRel = c.SpanRel()
	}
	m.treeOK = fpOn
	m.uniform = true
	m.groups = k
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
// Right-hand leaves are consumed by the very next Pair and almost never leave
// anything behind (the fast path copies rank-set values and folds statistics
// by value), so they are all built into one recycled scratch tree; only when
// a Pair's exhaustive fallback copies an unmergeable scratch entry — whose
// rank-set pointer then survives inside the left tree — is the scratch
// retired and reallocated. This halves leaf storage: the dominant term in the
// reduction's allocation footprint.
//
// A leafCtx is single-goroutine state: the parallel reduction hands each
// spawned lane its own.
type leafCtx struct {
	ctts  []*ctt.RankCTT
	noRel bool

	// Durable slab cursors, refilled a chunk at a time.
	merged  []Merged
	lists   [][]Entry
	entries []Entry
	sets    []rankset.Set

	// Recycled right-leaf storage; scratch is nil when retired or not yet
	// allocated.
	scratch        *Merged
	scratchLists   [][]Entry
	scratchEntries []Entry
	scratchSets    []rankset.Set

	// probe is the lane's entryLists scratch, reused by every Pair on it.
	probe probeScratch
}

// durableLeaf builds rank i's leaf tree out of the chunked slabs.
func (x *leafCtx) durableLeaf(i int) *Merged {
	c := x.ctts[i]
	nl, ne := len(c.Data), executedCount(c)
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
func (x *leafCtx) scratchLeaf(i int) *Merged {
	c := x.ctts[i]
	nl, ne := len(c.Data), executedCount(c)
	fresh := false
	if x.scratch == nil || len(x.scratchLists) < nl || len(x.scratchEntries) < ne {
		x.scratch = new(Merged)
		x.scratchLists = make([][]Entry, nl)
		x.scratchEntries = make([]Entry, ne)
		x.scratchSets = make([]rankset.Set, ne)
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

// pair merges b into a, retiring the scratch tree when an unmergeable
// scratch entry escaped into the survivor.
func (x *leafCtx) pair(a, b *Merged) (*Merged, error) {
	m, escaped, err := pairEsc(a, b, &x.probe)
	if escaped && b == x.scratch {
		x.scratch = nil
		obs.Attached().Inc(obs.MergeScratchRetires)
	}
	return m, err
}

// refreshSummary recomputes the whole-tree span and shape guards from the
// cached entry fingerprints. O(vertices + groups); called only after a merge
// step that changed the entry structure.
func (m *Merged) refreshSummary() {
	h := fp.New()
	ok := true
	uniform := true
	groups := 0
	for gid, es := range m.Entries {
		if len(es) == 0 {
			continue
		}
		h = h.Word(uint64(gid)).Word(uint64(len(es)))
		if len(es) > 1 {
			uniform = false
		}
		groups += len(es)
		for i := range es {
			if !es[i].fpOK {
				ok = false
			}
			h = h.Word(uint64(es[i].fpRel))
		}
	}
	m.treeRel = h
	m.treeOK = ok
	m.uniform = uniform
	m.groups = groups
}

// Pair merges b into a and returns a. Both operands are consumed: the
// result aliases and mutates their data. Trees must be identical (SPMD).
func Pair(a, b *Merged) (*Merged, error) {
	m, _, err := pairEsc(a, b, new(probeScratch))
	return m, err
}

// pairEsc is Pair, additionally reporting whether any of b's entries escaped
// into the survivor (an unmergeable entry copied by the exhaustive fallback,
// whose rank-set pointer then stays reachable from a). The reduction uses
// this to decide whether b's scratch storage is safe to recycle. sc is
// working storage the caller may hand to its next Pair.
func pairEsc(a, b *Merged, sc *probeScratch) (_ *Merged, escaped bool, _ error) {
	if a.TreeHash != b.TreeHash {
		return nil, false, fmt.Errorf("merge: CST hash mismatch: %x vs %x", a.TreeHash, b.TreeHash)
	}
	if len(a.Entries) != len(b.Entries) {
		return nil, false, fmt.Errorf("merge: vertex count mismatch: %d vs %d", len(a.Entries), len(b.Entries))
	}
	// Merging reads and mutates payloads in place, so projected trees must be
	// whole first.
	if err := a.Materialize(); err != nil {
		return nil, false, err
	}
	if err := b.Materialize(); err != nil {
		return nil, false, err
	}
	noRel := a.noRel || b.noRel
	a.noRel = noRel
	st := mergeState{noRel: noRel, fpOn: fingerprintEnabled && !noRel, keyOn: fingerprintEnabled, sc: sc}
	obs.Attached().Inc(obs.MergePairs)
	ranks := a.NumRanks + b.NumRanks
	// Lane = reduction depth (log2 of the merged span), so Perfetto renders
	// the reduction tree as one swimlane per level.
	tsp := obs.AttachedRecorder().Begin(ftrace.CatMerge, ftrace.NamePair, int32(bits.Len(uint(ranks))-1))
	treeFast := st.fpOn && a.uniform && b.uniform && a.treeOK && b.treeOK &&
		a.treeRel == b.treeRel && a.groups == b.groups
	if treeFast {
		obs.Attached().Inc(obs.MergeTreeFastHits)
		st.pairFast(a, b)
	} else {
		st.dirty = true
		for gid := range a.Entries {
			a.Entries[gid] = st.entryLists(a.Entries[gid], b.Entries[gid])
		}
	}
	st.flush()
	path := int64(ftrace.PairPathWalk)
	switch {
	case treeFast:
		path = ftrace.PairPathTreeFast
	case st.walks == 0:
		path = ftrace.PairPathFP
	}
	tsp.End(int64(ranks), path)
	if st.dirty {
		a.refreshSummary()
	}
	a.NumRanks += b.NumRanks
	a.EventCount += b.EventCount
	return a, st.escaped, nil
}

// mergeState carries one Pair's configuration and tallies; sc is the
// longer-lived scratch behind it.
type mergeState struct {
	noRel bool
	fpOn  bool
	// keyOn lets key inequality reject a probe, one at a time in tryMerge
	// and wholesale through entryLists' index. It follows fingerprintEnabled
	// alone — the key holds under noRel too — so the exhaustive reference
	// bypasses it together with the fingerprints.
	keyOn   bool
	dirty   bool // entry structure changed; whole-tree span needs refresh
	escaped bool // an entry of b was copied into a (see pairEsc)
	sc      *probeScratch

	// Per-Pair observation tallies, accumulated in plain fields on the hot
	// entry loops and flushed to the attached sink once per Pair (see obs.go).
	fpRelHits  int64 // relative-fingerprint fast-path unifications
	fpAbsHits  int64 // absolute-fingerprint fast-path unifications
	keyRejects int64 // probes settled by key inequality, made or skipped by the index
	walks      int64 // comparisons that fell back to the exhaustive walk
	unmerged   int64 // right entries appended unmerged (new rank group)
	poisonings int64 // records poisoned RelUnsafe by an absolute unification
}

// indexMin is the left-list length from which entryLists probes through the
// key index instead of scanning. A scan already settles each probe by two
// memoized keys, so on a short list it beats the map operations that build
// the index, and a one-entry list — every vertex of a job that folds — must
// touch no map at all. merge.All, ms, SP-1024 / MG-512 (parent 207 / 5.2):
// 2 → 14.3 / 4.4, 4 → 12.1 / 3.9, 8 → 10.6 / 3.6, 16 → 10.8 / 3.5, 32 → 11.2
// / 3.6; LU-128 never has eight groups at a vertex and stays on the scan.
const indexMin = 8

// probeScratch is entryLists' working storage: the rel buffer of the
// exhaustive walk and the key index of the vertex being merged. One per
// reduction lane (leafCtx), so a steady-state Pair allocates none of it.
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

// pairFast merges two uniform trees whose span fingerprints matched. Every
// vertex is expected to hit the O(1) fast path; a vertex that does not
// (possible only under a 64-bit span collision) falls back to the exhaustive
// list merge, preserving correctness.
func (st *mergeState) pairFast(a, b *Merged) {
	for gid := range a.Entries {
		la, lb := a.Entries[gid], b.Entries[gid]
		if len(lb) == 0 {
			continue
		}
		if len(la) == 1 && len(lb) == 1 {
			ea, eb := &la[0], &lb[0]
			// The whole-tree span compare already guarded on the total group
			// count, so the per-entry shape guard is redundant here; the
			// entry fingerprint alone decides.
			if ea.fpRel == eb.fpRel {
				if unifyFastRel(ea.Data, eb.Data) {
					ea.invalidateAbs()
				}
				mergeRanks(ea, eb)
				st.fpRelHits++
				continue
			}
		}
		a.Entries[gid] = st.entryLists(la, lb)
		st.dirty = true
	}
}

// entryLists folds right-hand entries into the left-hand list, unifying
// rank groups whose data is compatible. Left entries are probed in order and
// the first compatible one wins, exactly as the exhaustive-only merge did.
// From indexMin left entries on, a right entry probes only the left entries
// that share its invariant key: every entry the index leaves out has an
// unequal key and so would have been rejected, which makes the winner, each
// rel/abs/poison decision and the output bytes those of the full scan. The
// entries left out are tallied as key rejects, so hits, rejects and walks
// still add up to the probes the scan would have made.
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
			left = append(left, *re)
			st.escaped = true
			st.unmerged++
		}
	}
	return left
}

// shapeEq is the O(1) shape guard accompanying every fingerprint compare:
// a silent fingerprint collision must also exhibit identical record, cycle,
// and control-vector counts to be accepted (see DESIGN.md).
func shapeEq(a, b *ctt.VData) bool {
	return len(a.Records) == len(b.Records) && len(a.Cycles) == len(b.Cycles) &&
		a.Counts.Len() == b.Counts.Len() && a.Taken.Len() == b.Taken.Len()
}

// tryMerge unifies re into le when their payloads are compatible, reporting
// whether it did. Three outcomes: fingerprint equality takes the O(1) fast
// paths; key inequality proves the payloads incompatible; anything else
// falls back to the exhaustive walk. The merge decision is always exactly
// the one compatible() would make.
func (st *mergeState) tryMerge(le, re *Entry) bool {
	fast := st.fpOn && le.fpOK && re.fpOK && shapeEq(le.Data, re.Data)
	if fast && le.fpRel == re.fpRel {
		if unifyFastRel(le.Data, re.Data) {
			le.invalidateAbs()
		}
		mergeRanks(le, re)
		st.fpRelHits++
		return true
	}
	// Ahead of the absolute fingerprints, which a rejected pair need not hash.
	if st.keyOn && le.Data.InvariantKeyCached() != re.Data.InvariantKeyCached() {
		st.keyRejects++
		return false
	}
	if fast {
		le.ensureAbs()
		re.ensureAbs()
		if le.absOK && re.absOK && le.fpAbs == re.fpAbs {
			if unifyFastAbs(le.Data, re.Data) {
				// Poisoned records changed class; recompute the stale
				// relative fingerprint (absolute peers are unchanged).
				le.Data.InvalidateFingerprint()
				le.fpRel = le.Data.FingerprintRelCached()
				st.poisonings++
			}
			mergeRanks(le, re)
			st.fpAbsHits++
			return true
		}
	}
	st.walks++
	rel, ok := st.compatible(le.Data, re.Data)
	if !ok {
		return false
	}
	poisoned, relSet := unify(le.Data, re.Data, rel)
	if relSet {
		le.invalidateAbs()
	}
	if poisoned {
		st.poisonings++
		if st.fpOn && le.fpOK {
			le.Data.InvalidateFingerprint()
			le.fpRel = le.Data.FingerprintRelCached()
		}
	}
	mergeRanks(le, re)
	return true
}

// ensureAbs computes the entry's absolute fingerprint on first use.
func (e *Entry) ensureAbs() {
	if !e.absDone {
		e.fpAbs, e.absOK = e.Data.FingerprintAbs()
		e.absDone = true
	}
}

// invalidateAbs marks the absolute fingerprint stale after a record was
// rel-encoded (its absolute peer no longer identifies the group).
func (e *Entry) invalidateAbs() {
	e.absDone = true
	e.absOK = false
}

// mergeRanks extends le's rank set with re's. The reduction always merges a
// lower-rank half with a higher-rank half, so the in-place append fast path
// applies at every level once the entry owns its storage; the append's run
// structure is canonical (identical to rebuilding from sorted members), so
// serialized rank sets are byte-stable regardless of which path ran.
func mergeRanks(le, re *Entry) {
	if le.owns && le.Ranks.TryAppend(re.Ranks) {
		return
	}
	le.Ranks = rankset.Union(le.Ranks, re.Ranks)
	le.owns = true
}

// unifyFastRel applies the relative-encoding unification to a payload pair
// whose relative fingerprints matched, mirroring unify()'s flag discipline
// per encoding class, and folds b's time statistics into a. It reports
// whether a plain p2p record became rel-encoded (invalidating fpAbs).
func unifyFastRel(a, b *ctt.VData) (absInvalid bool) {
	rb := b.Records
	for i, r := range a.Records {
		o := rb[i]
		// Records already rel-encoded by an earlier reduction level — the
		// steady state from level 1 up — need no class decision at all.
		if !r.RelEncoded {
			switch {
			case r.Peers != nil:
				// Peer-pattern records rel-unify (offsets are rank-relative).
				r.RelEncoded = true
			case r.Ev.Op.IsPointToPoint() && !r.RelUnsafe:
				// Plain: equal PeerRel, rel-unify.
				r.RelEncoded = true
				absInvalid = true
				// RelUnsafe records matched on absolute peer: no change.
				// Collectives matched on absolute peer: no change.
			}
		}
		r.Time.Merge(&o.Time)
		r.Compute.Merge(&o.Compute)
	}
	return absInvalid
}

// unifyFastAbs applies the absolute-encoding unification to a payload pair
// whose absolute fingerprints matched: patterns still rel-unify, plain p2p
// records keep their absolute peer but are poisoned RelUnsafe when their
// relative encodings disagree (the surviving PeerRel would be stale for the
// widened group). Reports whether any record was poisoned.
func unifyFastAbs(a, b *ctt.VData) (poisoned bool) {
	rb := b.Records
	for i, r := range a.Records {
		o := rb[i]
		if r.Peers != nil {
			r.RelEncoded = true
		} else if r.Ev.Op.IsPointToPoint() && !r.RelUnsafe {
			if o.RelUnsafe || r.PeerRel != o.PeerRel {
				r.RelUnsafe = true
				poisoned = true
			}
		}
		r.Time.Merge(&o.Time)
		r.Compute.Merge(&o.Compute)
	}
	return poisoned
}

// compatible reports whether two vertex-data payloads are mergeable, and for
// which records the relative-ranking encoding is required (rel[i] true means
// record i unifies relatively). Compatibility requires identical control
// data (loop counts, taken sets) and pairwise-compatible records. The
// returned slice aliases the state's scratch buffer and is valid until the
// next call.
func (st *mergeState) compatible(a, b *ctt.VData) ([]bool, bool) {
	if !a.Counts.Equal(&b.Counts) || !a.Taken.Vector.Equal(&b.Taken.Vector) {
		return nil, false
	}
	if len(a.Records) != len(b.Records) || len(a.Cycles) != len(b.Cycles) {
		return nil, false
	}
	for i := range a.Cycles {
		if a.Cycles[i] != b.Cycles[i] {
			return nil, false
		}
	}
	if cap(st.sc.relBuf) < len(a.Records) {
		st.sc.relBuf = make([]bool, len(a.Records))
	}
	rel := st.sc.relBuf[:len(a.Records)]
	for i := range a.Records {
		r, ok := recordCompatible(a.Records[i], b.Records[i], st.noRel)
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
// record was poisoned and whether any plain p2p record became rel-encoded,
// so the caller can refresh the entry's fingerprint cache incrementally.
func unify(a, b *ctt.VData, rel []bool) (poisoned, relSet bool) {
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if rel[i] {
			if !ra.RelEncoded && ra.Peers == nil {
				relSet = true
			}
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
	return poisoned, relSet
}

// AllNoRelative is All with the relative-ranking encoding disabled, for the
// ablation benchmark quantifying how much that encoding contributes. It uses
// the same parallel binary reduction as All, so the ablation isolates the
// encoding's effect rather than also changing the merge schedule. (The
// fingerprint fast paths are also bypassed: they encode the relative-first
// unification policy, which is exactly what this ablation removes.)
func AllNoRelative(ctts []*ctt.RankCTT, workers int) (*Merged, error) {
	return all(ctts, workers, true)
}

// All merges the per-rank trees of a job into one tree using a parallel
// binary reduction (paper: "We can use a parallel algorithm to merge all the
// CTTs", giving O(n log P)). workers <= 0 uses GOMAXPROCS.
func All(ctts []*ctt.RankCTT, workers int) (*Merged, error) {
	return all(ctts, workers, false)
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
// next Pair on that lane before another scratch leaf is built.
func all(ctts []*ctt.RankCTT, workers int, noRel bool) (*Merged, error) {
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
					left, lerr = reduce(&leafCtx{ctts: ctts, noRel: noRel}, lo, mid, false)
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
	m, err := reduce(&leafCtx{ctts: ctts, noRel: noRel}, 0, len(ctts), false)
	tsp.End(int64(len(ctts)), int64(workers))
	return m, err
}

// Serial merges without parallelism, for the ablation benchmark.
func Serial(ctts []*ctt.RankCTT) (*Merged, error) {
	if len(ctts) == 0 {
		return nil, fmt.Errorf("merge: no trees")
	}
	acc := FromRank(ctts[0])
	var sc probeScratch
	for _, c := range ctts[1:] {
		var err error
		acc, _, err = pairEsc(acc, FromRank(c), &sc)
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

// ForRank returns a replay source for one rank of the merged tree.
func (m *Merged) ForRank(rank int) rankView { return rankView{m, rank} }

func (v rankView) data(gid int32) *ctt.VData {
	es := v.m.Entries[gid]
	for i := range es {
		if es[i].Ranks.Contains(v.rank) {
			d, err := v.m.entryData(&es[i])
			if err != nil {
				// replay.Source has no error channel; a corrupt lazy section
				// reads as unexecuted here. The Streamer path surfaces the
				// error instead, and Materialize reports it directly.
				return nil
			}
			return d
		}
	}
	return nil
}

// Tree implements replay.Source.
func (v rankView) Tree() *cst.Tree { return v.m.Tree }

// Counts implements replay.Source.
func (v rankView) Counts(gid int32) *stride.Vector {
	if d := v.data(gid); d != nil {
		return &d.Counts
	}
	return nil
}

// Taken implements replay.Source.
func (v rankView) Taken(gid int32) *stride.Set {
	if d := v.data(gid); d != nil {
		return &d.Taken
	}
	return nil
}

// Records implements replay.Source.
func (v rankView) Records(gid int32) []*ctt.CommRecord {
	if d := v.data(gid); d != nil {
		return d.Records
	}
	return nil
}

// Cycles implements replay.Source.
func (v rankView) Cycles(gid int32) []ctt.Cycle {
	if d := v.data(gid); d != nil {
		return d.Cycles
	}
	return nil
}

// statMode guesses the timestat mode from the first record (for encode).
func (m *Merged) statMode() timestat.Mode {
	for _, es := range m.Entries {
		for _, e := range es {
			if e.Data == nil {
				// Unmaterialized lazy payload; encode materializes the whole
				// tree before calling here.
				continue
			}
			for _, r := range e.Data.Records {
				if r.Time.Hist != nil {
					return timestat.ModeHistogram
				}
				return timestat.ModeMeanStddev
			}
		}
	}
	return timestat.ModeMeanStddev
}
