// Streaming, group-aware decompression of merged trace trees.
//
// rankView (merge.go) answers every replay.Source accessor with a linear scan
// of the vertex's entry list, so a tree walk pays O(4·groups) per visited
// vertex — once per Counts, Taken, Records, and Cycles call, at every vertex
// visit of every loop iteration. The Streamer below replaces that with a
// per-rank RESOLVED VIEW: one pass over Merged.Entries produces a flat
// []ctt.VData indexed by gid, turning every accessor into an O(1) index.
// View storage is pooled and reused across ranks, so resolving rank r+1
// costs zero allocations after rank r.
//
// Replay CLASSES are SHAPES. The replay walk reads exactly Counts, Taken,
// Cycles, the number of records of a vertex and each record's Count — never a
// size, tag, peer, request list or timing (replay.Step). Two payloads of one
// vertex that agree on those have the same shape (ctt.VData.SameShape), and
// ranks whose views have the same shape vertex by vertex take the same walk:
// the same sequence of (slot, occurrence) steps, a slot numbering the (gid,
// record index) pairs of a view in GID order. The Streamer memoizes one REPLAY
// SKELETON ([]replay.Step) per class, and every rank synthesizes its events
// from the shared steps through its own BOUND TABLE, slot → *ctt.CommRecord:
// the records of the rank's own resolved view, vertex after vertex. For a
// P-rank job with k classes the tree is walked k times instead of P times,
// and k counts control flows: a ring 1, LU-128 9, MG-512 18, and SP and CG 9
// and 1 at any rank count — their rank groups differ in message size and in
// peer only, which no walk reads.
//
// Classes are keyed by the selection vector — which entry each vertex
// resolved to — exactly: a 64-bit fingerprint routes, an element-wise compare
// confirms. Resolving one rank on its own (a single-rank Replay or Cursor,
// say on a projected tree) costs O(groups) Contains calls per multi-group
// vertex and builds no table. The all-rank paths (Prepare, ReplayAll) would
// pay that scan P times over, so they first build two tables, once:
//
//   - the RANK TABLE: per multi-group vertex one []int32 of NumRanks cells
//     naming the entry each rank belongs to, filled in one pass over the
//     entries' rank runs (O(P + G) per vertex); resolve indexes instead of
//     scanning. It reads rank sets only.
//   - the CANONICAL-ENTRY ROWS: per multi-group vertex, entry i → the first
//     entry of the vertex with the same shape (ShapeKey routes, SameShape
//     confirms). resolve writes the canonical index, not the rank's own, into
//     the vector it hashes and compares, which is all it takes to turn the
//     exact-vector lookup into a same-shape lookup. Building the rows reads
//     every payload of the vertex, as the all-rank replay behind it is about
//     to.
//
// A projected tree (DecodeSelectAuto) holds the payloads of its selected
// ranks only: Replay and Cursor refuse any other rank, and Prepare and
// ReplayAll refuse the tree.
//
// Soundness: every element of a selection vector names an entry whose shape
// equals the shape of the rank's own entry at that vertex, whichever path
// wrote it — the canonicalising all-rank one, or the single-rank scan, which
// names the rank's own entry. So equal vectors ⇒ equal shapes ⇒ identical
// step sequences, also between a vector memoized before the rows existed and
// one resolved after; and a table is always bound from the rank's OWN view,
// so every emitted field is the rank's. A skeleton build IS the ordinary
// replay walk (the walkSteps recursion Events uses), so the emitted sequences
// are byte-identical to per-rank walks.
package merge

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/fp"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/replay"
	"repro/internal/stride"
	"repro/internal/trace"
)

// Resolved is one rank's flattened view of a merged tree: vertex data indexed
// directly by gid. It implements replay.Source with O(1) accessors, replacing
// rankView's per-accessor scan over the vertex's entry list.
type Resolved struct {
	tree *cst.Tree
	data []ctt.VData // indexed by gid; the zero view when the rank never executed it
}

// Tree implements replay.Source.
func (r *Resolved) Tree() *cst.Tree { return r.tree }

// Counts implements replay.Source.
func (r *Resolved) Counts(gid int32) *stride.Vector { return r.data[gid].Counts() }

// Taken implements replay.Source.
func (r *Resolved) Taken(gid int32) *stride.Set { return r.data[gid].Taken() }

// Records implements replay.Source.
func (r *Resolved) Records(gid int32) []*ctt.CommRecord { return r.data[gid].Records() }

// Cycles implements replay.Source.
func (r *Resolved) Cycles(gid int32) []ctt.Cycle { return r.data[gid].Cycles() }

// replayClass is one replay class: the ranks whose resolved views have one
// shape, sharing one memoized replay skeleton.
type replayClass struct {
	sel   []int32       // canonical entry per gid (-1 = not executed); exact identity
	steps []replay.Step // memoized skeleton (slot, occurrence) sequence
}

// rankMemo is what the Streamer remembers of a resolved rank: its class and
// its bound table, one pointer per record of the rank.
type rankMemo struct {
	class *replayClass
	recs  []*ctt.CommRecord
}

// resolveScratch is the pooled per-resolve working set: the rank's view, its
// selection vector, and how many records the view holds.
type resolveScratch struct {
	view Resolved
	sel  []int32
	nrec int
	// slab is the chunk the scratch carves bound tables from, so that an
	// all-rank call pays an allocation per chunk, not per rank. The memo's
	// tables keep the chunks alive.
	slab []*ctt.CommRecord

	// emit hands an event to fn under rank: ReplayAll's callback in the shape
	// a skeleton build takes, one closure made with the scratch instead of one
	// per rank.
	rank int
	fn   func(rank int, e *trace.Event)
	emit func(e *trace.Event)
}

// maxSlab caps a chunk at 32 KB of pointers.
const maxSlab = 1 << 12

// table binds the resolved view: its records, vertex after vertex in GID
// order — the slot order of replay.Step — carved from the chunk. A chunk is
// the size of the table that opens it or twice the chunk before, so a
// single-rank replay on a fresh Streamer allocates what it binds and no more.
func (sc *resolveScratch) table() []*ctt.CommRecord {
	if cap(sc.slab)-len(sc.slab) < sc.nrec {
		sc.slab = make([]*ctt.CommRecord, 0, max(sc.nrec, min(2*cap(sc.slab), maxSlab)))
	}
	start := len(sc.slab)
	for _, d := range sc.view.data {
		sc.slab = append(sc.slab, d.Records()...)
	}
	return sc.slab[start:len(sc.slab):len(sc.slab)]
}

// Streamer replays ranks of a merged tree through resolved views and
// memoized, shape-shared replay skeletons. It is safe for concurrent use;
// scratch storage is pooled and skeletons are built at most once per class
// (modulo benign warm-up races, where the first stored skeleton wins).
//
// Memory: the Streamer retains one selection vector (4 bytes per vertex) and
// one skeleton (8 bytes per event of one rank's sequence) per shape — for
// SPMD jobs a constant independent of P — plus one pointer per record per
// resolved rank and, after an all-rank call, the two tables: 4 bytes per rank
// and 4 bytes per entry for each multi-group vertex.
type Streamer struct {
	m       *Merged
	scratch sync.Pool // *resolveScratch

	mu      sync.Mutex
	classes map[fp.Hash][]*replayClass // hash → collision chain
	byRank  []rankMemo                 // memoized rank → class, bound table

	// table is the rank table (file header): (*table)[gid][rank] is the index
	// of the first entry of vertex gid whose rank set contains rank, -1 when
	// none does. A nil row — every single-group vertex, and any vertex
	// tableRow or the cell budget declined — means resolve scans. Built once,
	// by the first all-rank call; nil before that.
	tableOnce sync.Once
	table     atomic.Pointer[[][]int32]
	// canon holds the canonical-entry rows (file header): canon[gid][i] is the
	// first entry of vertex gid with entry i's shape. A nil row means every
	// entry is its own shape. Written before table is stored and read only
	// after table is seen, which is what publishes it.
	canon [][]int32
}

// maxTableCells bounds the rank table (4 bytes a cell, 256 MB). A decoded
// header may claim 2^24 ranks whatever the file's size, and a dense row per
// multi-group vertex of such a tree must not be what runs the process out of
// memory; vertices past the budget keep the scan.
const maxTableCells = 1 << 26

// NewStreamer returns a streaming replayer for m. The Streamer aliases m's
// entries; m must not be merged further while the Streamer is in use.
func NewStreamer(m *Merged) *Streamer {
	s := &Streamer{
		m:       m,
		classes: make(map[fp.Hash][]*replayClass),
		byRank:  make([]rankMemo, m.NumRanks),
	}
	nv := len(m.Entries)
	s.scratch.New = func() any {
		sc := &resolveScratch{view: Resolved{tree: m.Tree, data: make([]ctt.VData, nv)}, sel: make([]int32, nv)}
		sc.emit = func(e *trace.Event) { sc.fn(sc.rank, e) }
		return sc
	}
	return s
}

// NumRanks returns the number of ranks in the underlying tree.
func (s *Streamer) NumRanks() int { return s.m.NumRanks }

// EventCount returns the total event count of the underlying tree.
func (s *Streamer) EventCount() int64 { return s.m.EventCount }

// buildTable builds the rank table and the canonical-entry rows on first call.
func (s *Streamer) buildTable() {
	s.tableOnce.Do(func() {
		n := s.m.NumRanks
		tab := make([][]int32, len(s.m.Entries))
		canon := make([][]int32, len(s.m.Entries))
		byKey := make(map[fp.Hash]int32)
		cells := 0
		for gid, es := range s.m.Entries {
			if len(es) < 2 {
				continue
			}
			canon[gid] = canonRow(es, byKey)
			if cells+n > maxTableCells {
				continue
			}
			if tab[gid] = tableRow(es, n); tab[gid] != nil {
				cells += n
			}
		}
		s.canon = canon
		s.table.Store(&tab)
	})
}

// canonRow maps each entry of one vertex to the first entry of the same
// replay shape; nil when no two entries share one. The common case needs no
// index: every entry has entry 0's shape (rank groups split by a message size
// or a peer). Otherwise byKey — the caller's map, cleared and reused from
// vertex to vertex — holds the first entry of each ShapeKey.
func canonRow(es []Entry, byKey map[fp.Hash]int32) []int32 {
	row := make([]int32, len(es))
	one := true
	for i := 1; one && i < len(es); i++ {
		one = es[i].Data.SameShape(es[0].Data)
	}
	if one {
		obs.Attached().Add(obs.ReplayShapeFolds, int64(len(es)-1))
		return row // all zero
	}
	clear(byKey)
	folds := 0
	for i := range es {
		row[i] = int32(i)
		d := es[i].Data
		key := d.ShapeKey()
		j, seen := byKey[key]
		if !seen {
			byKey[key] = int32(i)
		} else if d.SameShape(es[j].Data) {
			row[i] = j
			folds++
		}
	}
	if folds == 0 {
		return nil
	}
	obs.Attached().Add(obs.ReplayShapeFolds, int64(folds))
	return row
}

// tableRow maps each of n ranks to the first entry of es containing it, by
// walking every entry's runs, at most n steps into any one of them. Nothing
// promises that a decoded vertex's rank sets are disjoint or lie inside
// [0, n): a cell once filled is kept, which is the entry the scan would
// return, and members from n up match no rank and are never reached. A run
// that starts below zero or whose last member overflows int64 is one whose
// Contains arithmetic wraps; the row is then declined (nil) and the vertex
// stays with the scan, wrap and all, so table and scan never disagree.
func tableRow(es []Entry, n int) []int32 {
	row := make([]int32, n)
	for i := range row {
		row[i] = -1
	}
	for i := range es {
		for _, r := range es[i].Ranks.Runs() {
			if r.First < 0 || r.Count > 1 && (r.Stride < 1 || r.Stride > (math.MaxInt64-r.First)/(r.Count-1)) {
				return nil
			}
			for k, x := int64(0), r.First; k < r.Count && x < int64(n); k, x = k+1, x+r.Stride {
				if row[x] < 0 {
					row[x] = int32(i)
				}
			}
		}
	}
	return row
}

// resolve fills sc with rank's resolved view and selection vector and returns
// the selection fingerprint. One pass over the vertices: an index into the
// rank table where it has a row, else a scan of the vertex's entry list for
// the first one containing rank. The view holds the rank's own payload; the
// vector names the rank's canonical entry where the vertex has a canonical
// row.
func (s *Streamer) resolve(rank int, sc *resolveScratch) fp.Hash {
	var tab, canon [][]int32
	if t := s.table.Load(); t != nil {
		tab, canon = *t, s.canon
	}
	data := sc.view.data
	sc.nrec = 0
	h := fp.New()
	for gid, es := range s.m.Entries {
		data[gid] = ctt.VData{}
		sc.sel[gid] = -1
		i := -1
		if tab != nil && tab[gid] != nil {
			i = int(tab[gid][rank])
		} else {
			for k := range es {
				if es[k].Ranks.Contains(rank) {
					i = k
					break
				}
			}
		}
		if i < 0 {
			continue
		}
		d := es[i].Data
		data[gid] = d
		sc.nrec += len(d.Records())
		if canon != nil && canon[gid] != nil {
			i = int(canon[gid][i])
		}
		sc.sel[gid] = int32(i)
		h = h.Word(uint64(gid)).Word(uint64(i))
	}
	return h
}

// lookup returns the memoized class whose selection vector equals sel, or nil.
// Caller holds s.mu.
func (s *Streamer) lookup(h fp.Hash, sel []int32) *replayClass {
	for _, c := range s.classes[h] {
		if slices.Equal(c.sel, sel) {
			return c
		}
	}
	return nil
}

// check reports an error when rank is out of range or outside the tree's
// projection.
func (s *Streamer) check(rank int) error {
	if rank < 0 || rank >= s.m.NumRanks {
		return fmt.Errorf("merge: replay rank %d out of range [0,%d)", rank, s.m.NumRanks)
	}
	return s.m.serves(rank)
}

// bound returns rank's class and bound table, from the rank memo or, on
// first contact with the rank, by resolving it into sc; first contact with
// its class builds and memoizes the skeleton. When emit is non-nil and the
// class was not yet memoized, the skeleton-building walk streams rank's
// events into emit and the returned bool is true (the caller must not emit
// again).
func (s *Streamer) bound(rank int, sc *resolveScratch, emit func(*trace.Event)) (rankMemo, bool, error) {
	if err := s.check(rank); err != nil {
		return rankMemo{}, false, err
	}
	s.mu.Lock()
	m := s.byRank[rank]
	s.mu.Unlock()
	if m.class != nil {
		obs.Attached().Inc(obs.ReplayRankMemoHits)
		obs.AttachedRecorder().Instant(ftrace.CatReplay, ftrace.NameMemoHit, 0, int64(rank), memoHitRank)
		return m, false, nil
	}

	h := s.resolve(rank, sc)
	m.recs = sc.table()
	built := false
	s.mu.Lock()
	if m.class = s.lookup(h, sc.sel); m.class == nil {
		// Build outside the lock: skeleton construction is the expensive part
		// and other classes' ranks should not serialize behind it. A
		// concurrent builder of the same class loses the insert race below
		// and discards its duplicate — correctness is unaffected (both walks
		// produce equal steps).
		s.mu.Unlock()
		tsp := obs.AttachedRecorder().Begin(ftrace.CatReplay, ftrace.NameSkeleton, 0)
		steps, err := replay.Skeleton(&sc.view, rank, emit)
		tsp.End(int64(rank), int64(len(steps)))
		obs.Attached().Inc(obs.ReplaySkeletonBuilds)
		if err != nil {
			return rankMemo{}, emit != nil, err
		}
		built = true
		s.mu.Lock()
		if m.class = s.lookup(h, sc.sel); m.class == nil {
			m.class = &replayClass{sel: append([]int32(nil), sc.sel...), steps: steps}
			s.classes[h] = append(s.classes[h], m.class)
		}
	}
	s.byRank[rank] = m
	s.mu.Unlock()
	if !built {
		obs.Attached().Inc(obs.ReplayClassReuses)
		obs.AttachedRecorder().Instant(ftrace.CatReplay, ftrace.NameMemoHit, 0, int64(rank), memoHitClass)
	}
	return m, built && emit != nil, nil
}

// Replay streams rank's exact event sequence into emit. The first rank of
// each class pays one tree walk (which doubles as the skeleton build); every
// later rank of the class is a flat scan over the shared skeleton through its
// own bound records. A projected tree serves its few ranks once each, so
// there a replay walks the rank's resolved view and memoizes nothing. The
// event pointer is only valid during the callback. The emitted sequence is
// byte-identical to replay.Events over ForRank(rank).
func (s *Streamer) Replay(rank int, emit func(e *trace.Event)) error {
	sc := s.scratch.Get().(*resolveScratch)
	defer s.scratch.Put(sc)
	if s.m.proj != nil {
		if err := s.check(rank); err != nil {
			return err
		}
		s.resolve(rank, sc)
		return replay.Events(&sc.view, rank, emit)
	}
	m, emitted, err := s.bound(rank, sc, emit)
	if err != nil || emitted {
		return err
	}
	replay.EmitSkeleton(m.class.steps, m.recs, rank, emit)
	return nil
}

// Cursor returns a pull iterator over rank's event sequence, backed by the
// rank's (possibly shared) replay skeleton and its own bound table: O(1)
// per-rank state beyond those, suitable for feeding simmpi.SimulateStreamPar
// without materializing the sequence.
func (s *Streamer) Cursor(rank int) (*replay.Cursor, error) {
	sc := s.scratch.Get().(*resolveScratch)
	m, _, err := s.bound(rank, sc, nil)
	s.scratch.Put(sc)
	if err != nil {
		return nil, err
	}
	return replay.NewCursor(m.class.steps, m.recs, rank), nil
}

// Prepare builds the rank table and the canonical-entry rows, then resolves
// every rank, binds its table and builds every class's skeleton under a
// bounded worker pool (workers <= 0 uses GOMAXPROCS). Calling it first makes
// subsequent Cursor and Replay calls O(1) in the tree; both also build
// lazily, so Prepare is an optimization, not a requirement.
func (s *Streamer) Prepare(workers int) error {
	if err := s.m.whole("prepare"); err != nil {
		return err
	}
	s.buildTable()
	return s.forEachRank(workers, nil, func(s *Streamer, rank int, sc *resolveScratch) error {
		_, _, err := s.bound(rank, sc, nil)
		return err
	})
}

// ReplayAll streams every rank's sequence under a bounded worker pool
// (workers <= 0 uses GOMAXPROCS). fn is invoked concurrently from multiple
// goroutines, but events of one rank arrive in order on a single goroutine;
// per-rank accumulation (one matrix row per rank, say) needs no locking. The
// first error stops no other lanes but is the one returned.
func (s *Streamer) ReplayAll(workers int, fn func(rank int, e *trace.Event)) error {
	if err := s.m.whole("replay of every rank"); err != nil {
		return err
	}
	s.buildTable()
	return s.forEachRank(workers, fn, func(s *Streamer, rank int, sc *resolveScratch) error {
		sc.rank = rank
		m, emitted, err := s.bound(rank, sc, sc.emit)
		if err != nil || emitted {
			return err
		}
		// A closure EmitSkeleton only calls stays on the stack; sc.emit, which
		// a skeleton build retains, is the one that has to be made ahead.
		fn := sc.fn
		replay.EmitSkeleton(m.class.steps, m.recs, rank, func(e *trace.Event) { fn(rank, e) })
		return nil
	})
}

// forEachRank fans each out over ranks with an atomic work counter, so
// stragglers do not serialize behind a static partition. A lane holds one
// scratch for all its ranks, with fn behind the scratch's emit; each captures
// nothing, so a serial all-rank call allocates nothing of its own.
func (s *Streamer) forEachRank(workers int, fn func(rank int, e *trace.Event), each func(s *Streamer, rank int, sc *resolveScratch) error) error {
	n := s.m.NumRanks
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := s.scratch.Get().(*resolveScratch)
		sc.fn = fn
		var err error
		for rank := 0; rank < n && err == nil; rank++ {
			err = each(s, rank, sc)
		}
		sc.fn = nil
		s.scratch.Put(sc)
		return err
	}
	var next atomic.Int64
	next.Store(-1)
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := s.scratch.Get().(*resolveScratch)
			sc.fn = fn
			for rank := int(next.Add(1)); rank < n; rank = int(next.Add(1)) {
				if err := each(s, rank, sc); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
			sc.fn = nil
			s.scratch.Put(sc)
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// ClassCount reports how many replay classes have been discovered so far (a
// measure of SPMD uniformity: 1 means every resolved rank shares one
// skeleton). Only ranks already replayed or prepared are counted.
func (s *Streamer) ClassCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, chain := range s.classes {
		n += len(chain)
	}
	return n
}
