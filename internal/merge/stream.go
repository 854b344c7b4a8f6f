// Streaming, group-aware decompression of merged trace trees.
//
// rankView (merge.go) answers every replay.Source accessor with a linear scan
// of the vertex's entry list, so a tree walk pays O(4·groups) per visited
// vertex — once per Counts, Taken, Records, and Cycles call, at every vertex
// visit of every loop iteration. The Streamer below replaces that with a
// per-rank RESOLVED VIEW: one pass over Merged.Entries produces a flat
// []*ctt.VData indexed by gid, turning every accessor into an O(1) index.
// View storage is pooled and reused across ranks, so resolving rank r+1
// costs zero allocations after rank r.
//
// The resolver also exploits the SPMD structure the merge itself discovered:
// while resolving it records WHICH entry each vertex selected (the selection
// vector). Ranks with identical selection vectors see identical resolved
// data, so their tree walks emit the same sequence of (record, occurrence)
// steps — only the rank-relative peer fields differ. The Streamer therefore
// memoizes one REPLAY SKELETON ([]replay.Step) per selection class and
// replays all other ranks of the class by a flat scan over the shared steps
// (replay.EmitSkeleton / replay.Cursor), skipping the tree walk entirely.
// For a P-rank job with k classes the tree is walked k times instead of P
// times. k is a handful for a job that folds (a ring 3, LU-128 9, MG-512 18)
// and P for one that does not: SP and CG at 1024 ranks have 1024 classes,
// every rank its own, and there the resolve pass is most of Prepare.
//
// That pass costs O(groups) Contains calls per multi-group vertex when one
// rank is resolved on its own, which is what a single-rank Replay or Cursor
// on a projected tree does. The all-rank paths (Prepare, ReplayAll) would pay
// it P times over, P × G in all, so they first build a RANK TABLE: for each
// multi-group vertex one []int32 of NumRanks cells naming the entry each rank
// belongs to, filled in one pass over the entries' rank runs (O(P + G) per
// vertex). resolve then indexes instead of scanning. The table reads rank
// sets only, so building it fills no lazy payload.
//
// Sequence preservation: a skeleton build IS the ordinary replay walk (the
// same walkSteps recursion Events uses), and walk decisions depend only on
// the resolved payloads — Counts, Taken, Records, Cycles — never on the rank
// itself (the rank only parameterizes PeerForAt and error text). Skeleton
// classes are keyed by the exact selection vector (a 64-bit fingerprint
// routes to a class; membership is confirmed by comparing the vectors
// element-wise), so two ranks share steps only when their resolved views are
// identical, and the emitted sequences are byte-identical to per-rank walks.
package merge

import (
	"fmt"
	"math"
	"runtime"
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
	data []*ctt.VData // indexed by gid; nil when the rank never executed it
	rank int
}

// Tree implements replay.Source.
func (r *Resolved) Tree() *cst.Tree { return r.tree }

// Counts implements replay.Source.
func (r *Resolved) Counts(gid int32) *stride.Vector {
	if d := r.data[gid]; d != nil {
		return &d.Counts
	}
	return nil
}

// Taken implements replay.Source.
func (r *Resolved) Taken(gid int32) *stride.Set {
	if d := r.data[gid]; d != nil {
		return &d.Taken
	}
	return nil
}

// Records implements replay.Source.
func (r *Resolved) Records(gid int32) []*ctt.CommRecord {
	if d := r.data[gid]; d != nil {
		return d.Records
	}
	return nil
}

// Cycles implements replay.Source.
func (r *Resolved) Cycles(gid int32) []ctt.Cycle {
	if d := r.data[gid]; d != nil {
		return d.Cycles
	}
	return nil
}

// replayClass is one selection class: the set of ranks whose resolved views
// are identical, sharing one memoized replay skeleton.
type replayClass struct {
	sel   []int32       // entry index per gid (-1 = not executed); exact identity
	steps []replay.Step // memoized skeleton (record, occurrence) sequence
}

// resolveScratch is the pooled per-resolve working set.
type resolveScratch struct {
	data []*ctt.VData
	sel  []int32
}

// Streamer replays ranks of a merged tree through resolved views and
// memoized, group-shared replay skeletons. It is safe for concurrent use;
// scratch storage is pooled and skeletons are built at most once per
// selection class (modulo benign warm-up races, where the first stored
// skeleton wins).
//
// Memory: the Streamer retains one selection vector (4 bytes per vertex) and
// one skeleton (16 bytes per event of one rank's sequence) per class — for
// SPMD jobs a constant independent of P, and always at most the cost of
// materializing the distinct per-rank sequences once — plus, after an
// all-rank call, the rank table: 4 bytes per rank per multi-group vertex.
type Streamer struct {
	m       *Merged
	scratch sync.Pool // *resolveScratch

	mu      sync.Mutex
	classes map[fp.Hash][]*replayClass // hash → collision chain
	byRank  []*replayClass             // memoized rank → class

	// table is the rank table (file header): (*table)[gid][rank] is the index
	// of the first entry of vertex gid whose rank set contains rank, -1 when
	// none does. A nil row — every single-group vertex, and any vertex
	// tableRow or the cell budget declined — means resolve scans. Built once,
	// by the first all-rank call; nil before that.
	tableOnce sync.Once
	table     atomic.Pointer[[][]int32]
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
		byRank:  make([]*replayClass, m.NumRanks),
	}
	nv := len(m.Entries)
	s.scratch.New = func() any {
		return &resolveScratch{data: make([]*ctt.VData, nv), sel: make([]int32, nv)}
	}
	return s
}

// NumRanks returns the number of ranks in the underlying tree.
func (s *Streamer) NumRanks() int { return s.m.NumRanks }

// EventCount returns the total event count of the underlying tree.
func (s *Streamer) EventCount() int64 { return s.m.EventCount }

// buildTable builds the rank table on first call.
func (s *Streamer) buildTable() {
	s.tableOnce.Do(func() {
		n := s.m.NumRanks
		tab := make([][]int32, len(s.m.Entries))
		cells := 0
		for gid, es := range s.m.Entries {
			if len(es) < 2 || cells+n > maxTableCells {
				continue
			}
			if tab[gid] = tableRow(es, n); tab[gid] != nil {
				cells += n
			}
		}
		s.table.Store(&tab)
	})
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
// the first one containing rank. On a selectively decoded tree this is where
// lazy payload sections are filled (and where a corrupt skipped section
// surfaces its error).
func (s *Streamer) resolve(rank int, sc *resolveScratch) (fp.Hash, error) {
	var tab [][]int32
	if t := s.table.Load(); t != nil {
		tab = *t
	}
	h := fp.New()
	for gid, es := range s.m.Entries {
		sc.data[gid] = nil
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
		d, err := s.m.entryData(&es[i])
		if err != nil {
			return h, fmt.Errorf("merge: resolving rank %d at vertex %d: %w", rank, gid, err)
		}
		sc.data[gid] = d
		sc.sel[gid] = int32(i)
		h = h.Word(uint64(gid)).Word(uint64(i))
	}
	return h, nil
}

// lookup returns the memoized class whose selection vector equals sel, or nil.
// Caller holds s.mu.
func (s *Streamer) lookup(h fp.Hash, sel []int32) *replayClass {
	for _, c := range s.classes[h] {
		if selEqual(c.sel, sel) {
			return c
		}
	}
	return nil
}

func selEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// classFor resolves rank and returns its selection class, building and
// memoizing the replay skeleton on first contact with the class. When emit is
// non-nil and the class was not yet memoized, the skeleton-building walk
// streams rank's events into emit and the returned bool is true (the caller
// must not emit again).
func (s *Streamer) classFor(rank int, emit func(*trace.Event)) (*replayClass, bool, error) {
	if rank < 0 || rank >= s.m.NumRanks {
		return nil, false, fmt.Errorf("merge: replay rank %d out of range [0,%d)", rank, s.m.NumRanks)
	}
	s.mu.Lock()
	if c := s.byRank[rank]; c != nil {
		s.mu.Unlock()
		sink.Inc(obs.ReplayRankMemoHits)
		rec.Instant(ftrace.CatReplay, ftrace.NameMemoHit, 0, int64(rank), memoHitRank)
		return c, false, nil
	}
	s.mu.Unlock()

	sc := s.scratch.Get().(*resolveScratch)
	defer s.scratch.Put(sc)
	h, err := s.resolve(rank, sc)
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	if c := s.lookup(h, sc.sel); c != nil {
		s.byRank[rank] = c
		s.mu.Unlock()
		sink.Inc(obs.ReplayClassReuses)
		rec.Instant(ftrace.CatReplay, ftrace.NameMemoHit, 0, int64(rank), memoHitClass)
		return c, false, nil
	}
	s.mu.Unlock()

	// Build outside the lock: skeleton construction is the expensive part and
	// other classes' ranks should not serialize behind it. A concurrent
	// builder of the same class loses the insert race below and discards its
	// duplicate — correctness is unaffected (both walks produce equal steps).
	view := &Resolved{tree: s.m.Tree, data: sc.data, rank: rank}
	bsp := sink.Start(obs.StageSkeleton)
	tsp := rec.Begin(ftrace.CatReplay, ftrace.NameSkeleton, 0)
	steps, err := replay.Skeleton(view, rank, emit)
	tsp.End(int64(rank), int64(len(steps)))
	bsp.End()
	sink.Inc(obs.ReplaySkeletonBuilds)
	if err != nil {
		return nil, emit != nil, err
	}
	c := &replayClass{sel: append([]int32(nil), sc.sel...), steps: steps}

	s.mu.Lock()
	if prior := s.lookup(h, sc.sel); prior != nil {
		c = prior
	} else {
		s.classes[h] = append(s.classes[h], c)
	}
	s.byRank[rank] = c
	s.mu.Unlock()
	return c, emit != nil, nil
}

// Replay streams rank's exact event sequence into emit. The first rank of
// each selection class pays one tree walk (which doubles as the skeleton
// build); every later rank of the class is a flat scan over the shared
// skeleton. The event pointer is only valid during the callback. The emitted
// sequence is byte-identical to replay.Events over ForRank(rank).
func (s *Streamer) Replay(rank int, emit func(e *trace.Event)) error {
	c, emitted, err := s.classFor(rank, emit)
	if err != nil || emitted {
		return err
	}
	replay.EmitSkeleton(c.steps, rank, emit)
	return nil
}

// Cursor returns a pull iterator over rank's event sequence, backed by the
// rank's (possibly shared) replay skeleton: O(1) per-rank state, suitable for
// feeding simmpi.SimulateStreamPar without materializing the sequence.
func (s *Streamer) Cursor(rank int) (*replay.Cursor, error) {
	c, _, err := s.classFor(rank, nil)
	if err != nil {
		return nil, err
	}
	return replay.NewCursor(c.steps, rank), nil
}

// Prepare builds the rank table, then resolves every rank and builds every
// selection class's skeleton under a bounded worker pool (workers <= 0 uses
// GOMAXPROCS). Calling it first makes subsequent Cursor calls O(1); Replay
// and Cursor also build lazily, so Prepare is an optimization, not a
// requirement.
func (s *Streamer) Prepare(workers int) error {
	s.buildTable()
	return s.forEachRank(workers, func(rank int) error {
		_, _, err := s.classFor(rank, nil)
		return err
	})
}

// ReplayAll streams every rank's sequence under a bounded worker pool
// (workers <= 0 uses GOMAXPROCS). fn is invoked concurrently from multiple
// goroutines, but events of one rank arrive in order on a single goroutine;
// per-rank accumulation (one matrix row per rank, say) needs no locking. The
// first error stops no other lanes but is the one returned.
func (s *Streamer) ReplayAll(workers int, fn func(rank int, e *trace.Event)) error {
	s.buildTable()
	return s.forEachRank(workers, func(rank int) error {
		return s.Replay(rank, func(e *trace.Event) { fn(rank, e) })
	})
}

// forEachRank fans fn out over ranks with an atomic work counter, so
// stragglers do not serialize behind a static partition.
func (s *Streamer) forEachRank(workers int, fn func(rank int) error) error {
	n := s.m.NumRanks
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for rank := 0; rank < n; rank++ {
			if err := fn(rank); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	next.Store(-1)
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				rank := int(next.Add(1))
				if rank >= n {
					return
				}
				if err := fn(rank); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// ClassCount reports how many selection classes have been discovered so far
// (a measure of SPMD uniformity: 1 means every resolved rank shares one
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
