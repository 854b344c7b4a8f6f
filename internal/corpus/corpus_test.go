package corpus_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blockio"
	"repro/internal/corpus"
	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/obs"
	"repro/internal/simmpi"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// multiPhaseSrc is the corpus acceptance workload: a structure-rich
// multi-phase exchange whose op durations are constant in steady state
// (eager sends, compute-padded recvs that always find their message
// arrived, deterministic collectives). Across runs on slightly different
// machines (see runParams) every time statistic shifts by a small exact
// amount, which is the regime the payload delta codec is built for.
const multiPhaseSrc = `
func main() {
	for var k = 0; k < 16; k = k + 1 {
		send((rank + 1) % size, 512, 1);
		compute(20000);
		recv((rank + size - 1) % size, 512, 1);
		send((rank + 2) % size, 1024, 2);
		compute(20000);
		recv((rank + size - 2) % size, 1024, 2);
		send((rank + 3) % size, 256, 3);
		compute(20000);
		recv((rank + size - 3) % size, 256, 3);
		allreduce(8);
		send((rank + 1) % size, 2048, 4);
		compute(20000);
		recv((rank + size - 1) % size, 2048, 4);
		bcast(0, 4096);
		send((rank + 2) % size, 128, 5);
		compute(20000);
		recv((rank + size - 2) % size, 128, 5);
		reduce(0, 16);
		send((rank + 4) % size, 768, 6);
		compute(20000);
		recv((rank + size - 4) % size, 768, 6);
		send((rank + 5) % size, 1536, 7);
		compute(20000);
		recv((rank + size - 5) % size, 1536, 7);
		allreduce(64);
	}
	barrier();
}`

// runParams models "same workload, fresh timings": run r executes on a
// machine whose latency/overhead differ by small integer nanoseconds.
func runParams(run int) mpisim.Params {
	p := mpisim.DefaultParams()
	p.NoiseFrac = 0
	p.LatencyNS += float64(run) * 3
	p.OverheadNS += float64(run)
	return p
}

// simMerged traces src on ranks simulated processes under run's params and
// merges the per-rank trees.
func simMerged(t testing.TB, src string, ranks, run int) *merge.Merged {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	tree, err := cst.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	comps := make([]*ctt.Compressor, ranks)
	sinks := make([]trace.Sink, ranks)
	for i := range sinks {
		comps[i] = ctt.NewCompressor(tree, i, timestat.ModeMeanStddev)
		sinks[i] = comps[i]
	}
	if _, err := mpisim.Run(ranks, runParams(run), sinks, func(r *mpisim.Rank) {
		interp.Execute(prog, r)
	}); err != nil {
		t.Fatal(err)
	}
	ctts := make([]*ctt.RankCTT, ranks)
	for i := range comps {
		ctts[i] = comps[i].Finish()
	}
	m, err := merge.All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func encodeBytes(t testing.TB, m *merge.Merged) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func blockedLen(t testing.TB, m *merge.Merged) int {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.EncodeBlocked(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

func dirBytes(t testing.TB, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestIngestGetByteIdentity: GetBytes must reproduce every ingested
// encoding exactly, duplicates are no-ops, and distinct runs of one
// workload land in one structural class as delta runs.
func TestIngestGetByteIdentity(t *testing.T) {
	for _, ranks := range []int{7, 64} {
		st, err := corpus.Open(t.TempDir(), corpus.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var hashes []uint64
		var encs [][]byte
		for run := 0; run < 3; run++ {
			enc := encodeBytes(t, simMerged(t, multiPhaseSrc, ranks, run))
			h, err := st.IngestBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, h)
			encs = append(encs, enc)
		}
		for i, h := range hashes {
			got, err := st.GetBytes(h)
			if err != nil {
				t.Fatalf("ranks=%d run=%d: %v", ranks, i, err)
			}
			if !bytes.Equal(got, encs[i]) {
				t.Fatalf("ranks=%d run=%d: GetBytes differs from standalone encoding", ranks, i)
			}
		}
		dup, err := st.IngestBytes(encs[1])
		if err != nil {
			t.Fatal(err)
		}
		if dup != hashes[1] {
			t.Fatalf("duplicate ingest returned %016x, want %016x", dup, hashes[1])
		}
		stats, err := st.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Runs != 3 || stats.Classes != 1 || stats.DeltaRuns != 3 {
			t.Fatalf("ranks=%d: stats = %+v, want 3 runs in 1 class, all delta", ranks, stats)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorpusRatio is the PR acceptance bound: a corpus of 8 same-workload
// runs with fresh timings must be at least 4x smaller on disk than the 8
// standalone blocked encodings, while reconstructing each run byte-exactly
// — including after a close/reopen cycle (sealed-segment read path).
func TestCorpusRatio(t *testing.T) {
	for _, ranks := range []int{7, 64} {
		dir := t.TempDir()
		st, err := corpus.Open(dir, corpus.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var blockedTotal int
		var hashes []uint64
		var encs [][]byte
		for run := 0; run < 8; run++ {
			m := simMerged(t, multiPhaseSrc, ranks, run)
			blockedTotal += blockedLen(t, m)
			enc := encodeBytes(t, m)
			h, err := st.IngestBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, h)
			encs = append(encs, enc)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		disk := dirBytes(t, dir)
		ratio := float64(blockedTotal) / float64(disk)
		t.Logf("ranks=%d: blocked8=%dB corpus=%dB ratio=%.2f", ranks, blockedTotal, disk, ratio)
		if ratio < 4 {
			t.Fatalf("ranks=%d: corpus ratio %.2f < 4 (corpus %dB vs blocked %dB)",
				ranks, ratio, disk, blockedTotal)
		}

		st, err = corpus.Open(dir, corpus.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hashes {
			got, err := st.GetBytes(h)
			if err != nil {
				t.Fatalf("ranks=%d run=%d after reopen: %v", ranks, i, err)
			}
			if !bytes.Equal(got, encs[i]) {
				t.Fatalf("ranks=%d run=%d after reopen: bytes differ", ranks, i)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// spmdMerged builds a merged 1024-rank trace by driving the compressors
// directly (no simulator) with constant per-site durations offset by small
// integers per run — the large-scale variant of "fresh timings".
func spmdMerged(t testing.TB, ranks, run int) *merge.Merged {
	t.Helper()
	prog, err := lang.Parse(multiPhaseSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatal(err)
	}
	tree, err := cst.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	var loop *cst.Vertex
	var sites []*cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		switch v.Kind {
		case cst.KindLoop:
			if loop == nil {
				loop = v
			}
		case cst.KindComm:
			sites = append(sites, v)
		}
	})
	if loop == nil || len(sites) == 0 {
		t.Fatal("spmd tree missing vertices")
	}
	off := float64(run * 3)
	ctts := make([]*ctt.RankCTT, ranks)
	var ev trace.Event
	for r := 0; r < ranks; r++ {
		c := ctt.NewCompressor(tree, r, timestat.ModeMeanStddev)
		c.LoopEnter(int32(loop.Site))
		for k := 0; k < 4; k++ {
			c.LoopIter(int32(loop.Site))
			for si, v := range sites {
				if v.Op == trace.OpBarrier {
					continue // emitted after the loop
				}
				peer := trace.NoPeer
				switch v.Op {
				case trace.OpSend:
					peer = (r + 1 + si) % ranks
				case trace.OpRecv:
					peer = (r + ranks - 1 - si) % ranks
				}
				c.CommSite(int32(v.Site))
				ev = trace.Event{
					Op: v.Op, Peer: peer, Size: 256 + 16*si, Tag: si, ReqID: -1,
					DurationNS: 1500 + float64(100*si) + off, ComputeNS: 40,
				}
				c.Event(&ev)
			}
		}
		c.StructExit()
		for _, v := range sites {
			if v.Op != trace.OpBarrier {
				continue
			}
			c.CommSite(int32(v.Site))
			ev = trace.Event{Op: trace.OpBarrier, Peer: trace.NoPeer, ReqID: -1,
				DurationNS: 900 + off}
			c.Event(&ev)
		}
		c.Finalize()
		ctts[r] = c.Finish()
	}
	m, err := merge.All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCorpusRatio1024 asserts the acceptance bound and byte identity at
// 1024 ranks, using the direct-driven SPMD fixture.
func TestCorpusRatio1024(t *testing.T) {
	dir := t.TempDir()
	st, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var blockedTotal int
	var hashes []uint64
	var encs [][]byte
	for run := 0; run < 8; run++ {
		m := spmdMerged(t, 1024, run)
		blockedTotal += blockedLen(t, m)
		enc := encodeBytes(t, m)
		h, err := st.IngestBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
		encs = append(encs, enc)
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Classes != 1 || stats.DeltaRuns != 8 {
		t.Fatalf("stats = %+v, want 8 delta runs in 1 class", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	disk := dirBytes(t, dir)
	ratio := float64(blockedTotal) / float64(disk)
	t.Logf("ranks=1024: blocked8=%dB corpus=%dB ratio=%.2f", blockedTotal, disk, ratio)
	if ratio < 4 {
		t.Fatalf("corpus ratio %.2f < 4 (corpus %dB vs blocked %dB)", ratio, disk, blockedTotal)
	}
	st, err = corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, h := range hashes {
		got, err := st.GetBytes(h)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !bytes.Equal(got, encs[i]) {
			t.Fatalf("run %d: bytes differ after reopen", i)
		}
	}
}

// TestDeleteGC: tombstoned runs disappear, GC compacts them away, and a
// class whose last delta run is deleted is dropped with its file.
func TestDeleteGC(t *testing.T) {
	dir := t.TempDir()
	st, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var hashes []uint64
	var encs [][]byte
	for run := 0; run < 3; run++ {
		enc := encodeBytes(t, simMerged(t, multiPhaseSrc, 7, run))
		h, err := st.IngestBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
		encs = append(encs, enc)
	}
	if err := st.Delete(hashes[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetBytes(hashes[1]); err == nil {
		t.Fatal("deleted trace still served")
	}
	if err := st.GC(); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 2 || stats.Segments != 1 || stats.Classes != 1 {
		t.Fatalf("after gc: stats = %+v, want 2 runs, 1 segment, 1 class", stats)
	}
	for _, i := range []int{0, 2} {
		got, err := st.GetBytes(hashes[i])
		if err != nil {
			t.Fatalf("run %d after gc: %v", i, err)
		}
		if !bytes.Equal(got, encs[i]) {
			t.Fatalf("run %d after gc: bytes differ", i)
		}
	}
	for _, i := range []int{0, 2} {
		if err := st.Delete(hashes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.GC(); err != nil {
		t.Fatal(err)
	}
	stats, err = st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 0 || stats.Classes != 0 || stats.Segments != 0 {
		t.Fatalf("after full gc: stats = %+v, want empty store", stats)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "class-") || strings.HasPrefix(e.Name(), "seg-") {
			t.Fatalf("file %s survived full gc", e.Name())
		}
	}
}

// TestCacheLRU: unpinned traces are evicted in LRU order under budget
// pressure, pinned traces never are, and hits share the resident decode.
func TestCacheLRU(t *testing.T) {
	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)

	var encs [][]byte
	for run := 0; run < 3; run++ {
		encs = append(encs, encodeBytes(t, simMerged(t, multiPhaseSrc, 7, run)))
	}
	// Budget fits one decoded trace (cost = encoding length).
	st, err := corpus.Open(t.TempDir(), corpus.Options{CacheBytes: int64(len(encs[0])) + 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var hashes []uint64
	for _, enc := range encs {
		h, err := st.IngestBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}

	t0, err := st.Get(hashes[0])
	if err != nil {
		t.Fatal(err)
	}
	// Pinned: inserting a second trace overflows the budget but must not
	// evict the pinned one.
	t1, err := st.Get(hashes[1])
	if err != nil {
		t.Fatal(err)
	}
	again, err := st.Get(hashes[0])
	if err != nil {
		t.Fatal(err)
	}
	if again != t0 {
		t.Fatal("pinned trace was not served from cache")
	}
	again.Release()
	if evicts := s.Value(obs.CorpusCacheEvicts); evicts != 0 {
		t.Fatalf("evicted %d pinned traces", evicts)
	}
	// Release both; now the cache holds two evictable traces over budget:
	// releasing trims to the newest.
	t1.Release()
	t0.Release()
	if hits, misses := s.Value(obs.CorpusCacheHits), s.Value(obs.CorpusCacheMisses); hits != 1 || misses != 2 {
		t.Fatalf("hit/miss = %d/%d, want 1/2", hits, misses)
	}
	if s.Value(obs.CorpusCacheEvicts) == 0 {
		t.Fatal("no eviction after releasing over-budget traces")
	}
	// t0 was released last, so it is the resident one.
	warm, err := st.Get(hashes[0])
	if err != nil {
		t.Fatal(err)
	}
	if warm != t0 {
		t.Fatal("most recently released trace was evicted")
	}
	warm.Release()
	// The evicted trace still works, it just decodes again.
	cold, err := st.Get(hashes[1])
	if err != nil {
		t.Fatal(err)
	}
	if cold == t1 {
		t.Fatal("evicted trace was served from cache")
	}
	cold.Release()
}

// TestWarmGetNoAllocs: a cache hit is allocation-free — the warm serving
// path does no decode work at all.
func TestWarmGetNoAllocs(t *testing.T) {
	st, err := corpus.Open(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h, err := st.IngestBytes(encodeBytes(t, simMerged(t, multiPhaseSrc, 7, 0)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := st.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	tr.Release()
	allocs := testing.AllocsPerRun(200, func() {
		g, err := st.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	})
	if allocs > 0 {
		t.Fatalf("warm Get allocates %.1f objects/op, want 0", allocs)
	}
}

// shardSrc is a workload whose records do not fold across ranks (every rank
// sends its own message size, the SP case), so the encoding and its entry
// count grow with the rank count.
const shardSrc = `
func main() {
	for var k = 0; k < 4; k = k + 1 {
		send((rank + 1) % size, 64 + 8 * rank, 1);
		recv((rank + size - 1) % size, 64 + 8 * ((rank + size - 1) % size), 1);
		send((rank + 2) % size, 32 + 8 * rank, 2);
		recv((rank + size - 2) % size, 32 + 8 * ((rank + size - 2) % size), 2);
		allreduce(8);
	}
	barrier();
}`

// TestColdProjectedGetAllocs bounds what a cold single-rank get of a delta
// run allocates: its record, read whole (every byte is hashed), and beyond
// that a constant — the CST and the rank's own groups. The reassembly writes
// only those groups and the decoder carves only them, so the allocations a get
// makes stay flat while the rank count, and with it the encoding and its
// entry count, grows fourfold; only the record's bytes grow with it.
func TestColdProjectedGetAllocs(t *testing.T) {
	const beyondRecord = 24 << 10
	small, large := coldProjectedGet(t, 256), coldProjectedGet(t, 1024)
	for _, g := range []getAllocs{small, large} {
		if g.bytes-g.stored > beyondRecord {
			t.Errorf("cold projected get at %d ranks allocates %d B/op beside its %d-byte record, budget %d",
				g.ranks, g.bytes-g.stored, g.stored, beyondRecord)
		}
	}
	if float64(large.allocs) > 1.1*float64(small.allocs) {
		t.Errorf("cold projected get allocates %d times at 256 ranks, %d at 1024", small.allocs, large.allocs)
	}
}

// getAllocs is what one cold GetProjected of rank 1 allocates on average,
// and the bytes of the record it reads.
type getAllocs struct {
	ranks                 int
	bytes, allocs, stored int64
}

// shardStore ingests the shard workload on ranks ranks into a cacheless store,
// where it must be stored as a delta run, and returns the store (closed when
// the test ends), the run's hash, the store's stats and the merged tree.
func shardStore(t testing.TB, ranks int) (*corpus.Store, uint64, corpus.Stats, *merge.Merged) {
	t.Helper()
	st, err := corpus.Open(t.TempDir(), corpus.Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	m := simMerged(t, shardSrc, ranks, 0)
	h, err := st.IngestBytes(encodeBytes(t, m))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := st.Stats()
	if err != nil || stats.DeltaRuns != 1 {
		t.Fatalf("fixture was not stored as a delta run: %+v, %v", stats, err)
	}
	return st, h, stats, m
}

// coldProjectedGet ingests the shard workload on ranks ranks into a cacheless
// store and measures GetProjected of rank 1 on it.
func coldProjectedGet(t *testing.T, ranks int) getAllocs {
	t.Helper()
	st, h, stats, m := shardStore(t, ranks)
	get := func() {
		tr, err := st.GetProjected(h, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		tr.Release()
	}
	get()
	const gets = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	g := getAllocs{ranks: ranks, stored: stats.StoredBytes,
		bytes:  int64(after.TotalAlloc-before.TotalAlloc) / gets,
		allocs: int64(after.Mallocs-before.Mallocs) / gets}
	t.Logf("cold projected get, %d ranks: %d B/op, %d allocs/op; fullLen %d, record %d B, %d entries",
		ranks, g.bytes, g.allocs, stats.LogicalBytes, g.stored, m.GroupCount())
	return g
}

// BenchmarkColdProjectedGet is one cold GetProjected of rank 1 from a
// cacheless store holding the shard workload on 1024 ranks as a delta run:
// read the record, reassemble and hash it, decode rank 1's groups.
func BenchmarkColdProjectedGet(b *testing.B) {
	st, h, _, _ := shardStore(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := st.GetProjected(h, []int{1})
		if err != nil {
			b.Fatal(err)
		}
		tr.Release()
	}
}

// TestProjectedGetHashesUnselected: a projected get writes only the selected
// groups but hashes every byte, so damage the record CRC cannot see — a delta
// token rewritten and the CRC recomputed — fails GetProjected on the content
// hash even where it changes only a group outside the selection.
func TestProjectedGetHashesUnselected(t *testing.T) {
	dir := t.TempDir()
	st, err := corpus.Open(dir, corpus.Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var encs [2][]byte
	var hashes [2]uint64
	for run := range encs {
		encs[run] = encodeBytes(t, simMerged(t, shardSrc, 64, run))
		if hashes[run], err = st.IngestBytes(encs[run]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := merge.SplitEncoded(encs[0])
	if err != nil {
		t.Fatal(err)
	}
	sp, err := merge.SplitEncoded(encs[1])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := merge.NewRef(rep.Payload)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := merge.DeltaPayload(sp.Payload, ref)
	if err != nil {
		t.Fatal(err)
	}
	sel := merge.SelectRanks(1)
	want, err := sp.Plan.Reassemble(ref, delta, 0, sel)
	if err != nil {
		t.Fatal(err)
	}

	// Flip the low bit of a non-zero token's significand, which keeps the
	// delta's length and word count, at the first such word past the middle
	// that lies outside rank 1's groups: the projected bytes stay the same.
	c := bytes.NewReader(delta)
	words, _ := binary.ReadUvarint(c)
	var bad []byte
	for w := uint64(0); w < words && bad == nil; w++ {
		if tok, _ := binary.ReadUvarint(c); tok == 0 {
			continue
		}
		binary.ReadUvarint(c)
		if w < words/2 {
			continue
		}
		mut := append([]byte(nil), delta...)
		mut[len(delta)-c.Len()-1] ^= 1
		j, err := sp.Plan.Reassemble(ref, mut, 0, sel)
		if err == nil && bytes.Equal(j.Enc, want.Enc) {
			bad = mut
		}
	}
	if bad == nil {
		t.Fatal("no delta word outside rank 1's groups to damage")
	}

	// The record sits in the active log: rewrite its body and its CRC, which
	// covers the content hash through the body.
	path := filepath.Join(dir, "active.cypl")
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(log, delta)
	if at < 0 {
		t.Fatal("run 1's delta is not in the active log")
	}
	from := bytes.LastIndex(log[:at], binary.LittleEndian.AppendUint64(nil, hashes[1]))
	if from < 0 {
		t.Fatal("run 1's record is not in the active log")
	}
	copy(log[at:], bad)
	end := at + len(bad)
	binary.LittleEndian.PutUint32(log[end:], crc32.ChecksumIEEE(log[from:end]))
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}

	if tr, err := st.GetProjected(hashes[1], []int{1}); err == nil || !strings.Contains(err.Error(), "content hash") {
		if err == nil {
			tr.Release()
		}
		t.Fatalf("GetProjected of the damaged run: %v, want a content hash mismatch", err)
	}
	if _, err := st.GetBytes(hashes[1]); err == nil {
		t.Fatal("GetBytes serves the damaged run")
	}
	tr, err := st.GetProjected(hashes[0], []int{1})
	if err != nil {
		t.Fatalf("the undamaged run no longer reads: %v", err)
	}
	tr.Release()
}

// rankSequences replays every rank of m through a fresh streamer; the first
// replay error ends it.
func rankSequences(m *merge.Merged) ([][]trace.Event, error) {
	seqs := make([][]trace.Event, m.NumRanks)
	s := merge.NewStreamer(m)
	for rank := range seqs {
		if err := s.Replay(rank, func(e *trace.Event) {
			seqs[rank] = append(seqs[rank], *e)
		}); err != nil {
			return nil, err
		}
	}
	return seqs, nil
}

// storedRun is one ingested run and what every read of it must return.
type storedRun struct {
	hash uint64
	enc  []byte
	seqs [][]trace.Event
}

// sealedStore ingests nruns runs of shardSrc on 128 ranks — one class, delta
// records of several KB each, so a sealed segment gives every one a frame of
// its own — and closes the store, which seals them into one segment.
func sealedStore(t testing.TB, nruns int) (string, []storedRun) {
	t.Helper()
	dir := t.TempDir()
	st, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]storedRun, nruns)
	for i := range runs {
		m := simMerged(t, shardSrc, 128, i)
		r := &runs[i]
		r.enc = encodeBytes(t, m)
		if r.hash, err = st.IngestBytes(r.enc); err != nil {
			t.Fatal(err)
		}
		if r.seqs, err = rankSequences(m); err != nil {
			t.Fatal(err)
		}
	}
	if stats, err := st.Stats(); err != nil || stats.Classes != 1 || stats.DeltaRuns != nruns {
		t.Fatalf("fixture is not %d delta runs of one class: %+v, %v", nruns, stats, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, runs
}

// segFrame is one CYPB frame of a segment file: the file bytes it occupies,
// header included, and the bytes of the record stream it inflates to.
type segFrame struct {
	off, end   int // file offsets
	uoff, ulen int // payload range
}

// segmentFrames walks the one segment file of dir in stream order — magic and
// version of the segment, magic, version and frame target of the container,
// then frames up to the terminator — independently of blockio's reader.
func segmentFrames(t testing.TB, dir string) (string, []segFrame) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.cypd"))
	if err != nil || len(names) != 1 {
		t.Fatalf("segment files: %v, %v", names, err)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	pos := 5 + 4
	u := func() int {
		v, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			t.Fatalf("%s: bad varint at %d", names[0], pos)
		}
		pos += n
		return int(v)
	}
	u() // version
	u() // frame target
	var frames []segFrame
	for uoff := 0; ; {
		f := segFrame{off: pos, uoff: uoff}
		usize1 := u()
		if usize1 == 0 {
			return names[0], frames
		}
		csize := u()
		u() // crc
		pos += csize
		f.end, f.ulen = pos, usize1-1
		frames = append(frames, f)
		uoff += f.ulen
	}
}

// resealUncut rewrites the segment of dir the way a binary that predates
// Writer.Cut sealed it: the same record stream in a container cut by frame
// size alone, which for these fixtures is one frame.
func resealUncut(t testing.TB, dir string) {
	t.Helper()
	name, _ := segmentFrames(t, dir)
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	payload, format, err := blockio.Unwrap(raw[5:])
	if err != nil || format != blockio.FormatBlocked {
		t.Fatalf("segment container: %v, %v", format, err)
	}
	out := bytes.NewBuffer(append([]byte(nil), raw[:5]...))
	w, err := blockio.NewWriter(out, blockio.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, frames := segmentFrames(t, dir); len(frames) != 1 {
		t.Fatalf("uncut segment has %d frames, want 1", len(frames))
	}
}

// serves reports whether every read of r from st is the ingested run: the
// bytes, the replay of every rank through Get, and the replay of rank 1
// through a cold GetProjected onto it. A read that fails is returned as the
// error; a read that succeeds with anything else fails the test there and
// then.
func serves(t testing.TB, what string, st *corpus.Store, r *storedRun) error {
	t.Helper()
	got, err := st.GetBytes(r.hash)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, r.enc) {
		t.Fatalf("%s: GetBytes served wrong bytes", what)
	}
	tr, err := st.Get(r.hash)
	if err != nil {
		return err
	}
	seqs, err := rankSequences(tr.Merged)
	tr.Release()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(seqs, r.seqs) {
		t.Fatalf("%s: Get replays a wrong trace", what)
	}
	if tr, err = st.GetProjected(r.hash, []int{1}); err != nil {
		return err
	}
	var seq []trace.Event
	err = tr.Streamer().Replay(1, func(e *trace.Event) { seq = append(seq, *e) })
	tr.Release()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(seq, r.seqs[1]) {
		t.Fatalf("%s: GetProjected replays a wrong rank 1", what)
	}
	return nil
}

// TestCorruptStoreErrors: flipping or truncating store files makes Open or
// the read fail with an error — never a panic, never silently wrong bytes,
// and never a wrong trace: whatever GetBytes, Get or a cold GetProjected (the
// path that seeks over unselected sections) still serves is exactly what was
// ingested, through the replay of every rank. The store holds eight runs of
// one class in one sealed segment, the representative and seven deltas
// against it.
//
// The second half is the isolation contract of a segment cut at every record:
// a byte of record k's frame that goes bad under an open store fails every
// get of k and no get of any other record, and the store no longer opens.
func TestCorruptStoreErrors(t *testing.T) {
	dir, runs := sealedStore(t, 8)

	// check opens the damaged store with the serving cache off, so that every
	// read is cold, and holds every read that succeeds to the ingested run.
	check := func(what string) {
		st, err := corpus.Open(dir, corpus.Options{CacheBytes: -1})
		if err != nil {
			return
		}
		defer st.Close()
		for i := range runs {
			serves(t, fmt.Sprintf("%s: run %d", what, i), st, &runs[i])
		}
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < len(orig); pos += 1 + len(orig)/13 {
			mut := append([]byte(nil), orig...)
			mut[pos] ^= 0x10
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s pos %d", e.Name(), pos))
		}
		for _, cut := range []int{0, 3, len(orig) / 2, len(orig) - 1} {
			if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s cut %d", e.Name(), cut))
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The sweep means something only if the undamaged store serves it all.
	st, err := corpus.Open(dir, corpus.Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := range runs {
		if err := serves(t, fmt.Sprintf("restored store: run %d", i), st, &runs[i]); err != nil {
			t.Fatalf("run %d: the restored store does not serve the ingested trace: %v", i, err)
		}
	}

	// Damage under the open store, one byte at a time. Frame k holds record k:
	// the segment was sealed in ingest order, one frame a record.
	seg, frames := segmentFrames(t, dir)
	if len(frames) != len(runs) {
		t.Fatalf("sealed segment has %d frames for %d records", len(frames), len(runs))
	}
	orig, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range frames {
		// Every byte of the frame header and of the stream's end, a stride
		// through the body between.
		for pos := f.off; pos < f.end; pos++ {
			if pos >= f.off+12 && pos < f.end-8 && (pos-f.off)%(1+(f.end-f.off)/24) != 0 {
				continue
			}
			mut := append([]byte(nil), orig...)
			mut[pos] ^= 0xff
			if err := os.WriteFile(seg, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("byte %d of frame %d flipped", pos-f.off, k)
			for j := range runs {
				got, err := st.GetBytes(runs[j].hash)
				switch {
				case err == nil && !bytes.Equal(got, runs[j].enc):
					t.Fatalf("%s: run %d served wrong bytes", what, j)
				case j == k && err == nil:
					t.Fatalf("%s: the record it holds is still served", what)
				case j != k && err != nil:
					t.Fatalf("%s: run %d no longer reads: %v", what, j, err)
				}
			}
			if tr, err := st.Get(runs[k].hash); err == nil {
				tr.Release()
				t.Fatalf("%s: Get still serves the record it holds", what)
			}
			if tr, err := st.GetProjected(runs[k].hash, []int{1}); err == nil {
				tr.Release()
				t.Fatalf("%s: GetProjected still serves the record it holds", what)
			}
			if pos%7 == 0 {
				if st2, err := corpus.Open(dir, corpus.Options{}); err == nil {
					st2.Close()
					t.Fatalf("%s: the store still opens", what)
				}
			}
		}
	}
	if err := os.WriteFile(seg, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOldSegmentLayout: a segment sealed without cuts — eight records in one
// frame, what every store written before segments were cut holds — opens and
// serves the same bytes and the same traces through every read, and compacts.
// Only the cost differs: each cold get inflates the shared frame whole.
func TestOldSegmentLayout(t *testing.T) {
	dir, runs := sealedStore(t, 8)
	_, frames := segmentFrames(t, dir)
	if len(frames) != len(runs) {
		t.Fatalf("sealed segment has %d frames for %d records", len(frames), len(runs))
	}
	resealUncut(t, dir)

	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)
	st, err := corpus.Open(dir, corpus.Options{CacheBytes: -1})
	if err != nil {
		t.Fatalf("a store with an uncut segment does not open: %v", err)
	}
	defer st.Close()
	for i := range runs {
		if err := serves(t, fmt.Sprintf("uncut segment: run %d", i), st, &runs[i]); err != nil {
			t.Fatalf("uncut segment: run %d: %v", i, err)
		}
	}
	// Three reads a run, each of the whole record stream.
	_, frames = segmentFrames(t, dir)
	if got, want := s.Value(obs.CorpusSegInflated), int64(3*len(runs)*frames[0].ulen); got != want {
		t.Fatalf("reads of an uncut segment inflated %d bytes, want the whole segment each time (%d)", got, want)
	}
	if err := st.Delete(runs[3].hash); err != nil {
		t.Fatal(err)
	}
	if err := st.GC(); err != nil {
		t.Fatalf("gc of an uncut segment: %v", err)
	}
	if _, frames = segmentFrames(t, dir); len(frames) != len(runs)-1 {
		t.Fatalf("compacted segment has %d frames for %d records", len(frames), len(runs)-1)
	}
	for i := range runs {
		err := serves(t, fmt.Sprintf("after gc: run %d", i), st, &runs[i])
		if (err != nil) != (i == 3) {
			t.Fatalf("after gc: run %d: %v", i, err)
		}
	}
}

// TestColdGetInflatesOwnFrames pins what a cold get of a sealed record reads:
// its own frame, once, and not a byte of the seven records sealed beside it.
func TestColdGetInflatesOwnFrames(t *testing.T) {
	dir, runs := sealedStore(t, 8)
	_, frames := segmentFrames(t, dir)
	if len(frames) != len(runs) {
		t.Fatalf("sealed segment has %d frames for %d records", len(frames), len(runs))
	}
	st, err := corpus.Open(dir, corpus.Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)
	for k := range runs {
		framesBefore, bytesBefore := s.Value(obs.IOFramesDec), s.Value(obs.CorpusSegInflated)
		tr, err := st.GetProjected(runs[k].hash, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		tr.Release()
		if got := s.Value(obs.IOFramesDec) - framesBefore; got != 1 {
			t.Fatalf("cold get of record %d inflated %d frames, want 1", k, got)
		}
		if got, want := s.Value(obs.CorpusSegInflated)-bytesBefore, int64(frames[k].ulen); got != want {
			t.Fatalf("cold get of record %d inflated %d bytes, its record is %d", k, got, want)
		}
	}
}

// TestColdGetSegmentAllocs bounds what a cold read of a sealed record
// allocates on its way to the standalone encoding: the encoding (fullLen), the
// record, and a constant for the frame's compressed bytes, the section table
// and the file handle — nothing that grows with the records sealed beside it.
// Reading the segment whole cost the 8-run store 47 KB a get more than the
// 2-run store.
func TestColdGetSegmentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation budgets are not meaningful")
	}
	const fixed = 64 << 10
	perGet := map[int]int64{}
	for _, nruns := range []int{2, 8} {
		dir, runs := sealedStore(t, nruns)
		_, frames := segmentFrames(t, dir)
		if len(frames) != nruns {
			t.Fatalf("sealed segment has %d frames for %d records", len(frames), nruns)
		}
		st, err := corpus.Open(dir, corpus.Options{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		get := func() {
			if _, err := st.GetBytes(runs[1].hash); err != nil {
				t.Fatal(err)
			}
		}
		get()
		const gets = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < gets; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		st.Close()
		got := int64(after.TotalAlloc-before.TotalAlloc) / gets
		budget := int64(len(runs[1].enc)) + int64(frames[1].ulen) + fixed
		t.Logf("%d records sealed: cold get %d B/op; fullLen %d, record %d, budget %d", nruns, got, len(runs[1].enc), frames[1].ulen, budget)
		if got > budget {
			t.Fatalf("%d records sealed: cold get allocates %d B/op, budget %d", nruns, got, budget)
		}
		perGet[nruns] = got
	}
	if perGet[8] > perGet[2]+8<<10 {
		t.Fatalf("cold get allocates %d B/op beside seven records, %d beside one", perGet[8], perGet[2])
	}
}

// TestClassKeyChecked: the class key a class file declares sits in its header,
// outside the CRC-guarded CYPB frames, so what guards it is the structure it
// must be the key of. A file whose declared key was rewritten — under its old
// name or renamed to match — does not open.
func TestClassKeyChecked(t *testing.T) {
	dir := t.TempDir()
	st, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestBytes(encodeBytes(t, simMerged(t, multiPhaseSrc, 7, 0))); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "class-*.cyps"))
	if err != nil || len(names) != 1 {
		t.Fatalf("class files: %v, %v", names, err)
	}
	orig, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// "CYPS", version, then the key as a uvarint.
	key, n := binary.Uvarint(orig[5:])
	if n <= 0 {
		t.Fatal("class header has no key")
	}
	forged := binary.AppendUvarint(bytes.Clone(orig[:5]), key^1)
	forged = append(forged, orig[5+n:]...)
	for _, name := range []string{names[0], filepath.Join(dir, fmt.Sprintf("class-%016x.cyps", key^1))} {
		if err := os.Remove(names[0]); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := corpus.Open(dir, corpus.Options{})
		if err == nil {
			st.Close()
			t.Fatalf("%s: a class file declaring the wrong key opened", filepath.Base(name))
		}
		if !strings.Contains(err.Error(), "class key does not match") {
			t.Fatalf("%s: Open = %v, want the class-key verdict", filepath.Base(name), err)
		}
		if err := os.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(names[0], orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err = corpus.Open(dir, corpus.Options{}); err != nil {
		t.Fatalf("the restored class file does not open: %v", err)
	}
	st.Close()
}

// replayRank replays one rank of a served trace through its shared streamer.
func replayRank(t testing.TB, tr *corpus.Trace, rank int) []trace.Event {
	t.Helper()
	var out []trace.Event
	if err := tr.Streamer().Replay(rank, func(e *trace.Event) {
		out = append(out, *e)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGetProjected: a cold rank-projected get replays the selected rank
// identically to the ingested tree, refuses every other rank, and stays out
// of the serving cache. A whole get after it is a miss that hands out a whole
// tree — every rank replays the ingested sequences and the prediction is
// bit-equal — and is the one resident entry; a projected get of the resident
// trace is then a hit on that whole tree.
func TestGetProjected(t *testing.T) {
	st, err := corpus.Open(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const ranks = 8
	m := simMerged(t, multiPhaseSrc, ranks, 0)
	want, err := rankSequences(m)
	if err != nil {
		t.Fatal(err)
	}
	wantPred := predict(t, m)
	h, err := st.IngestBytes(encodeBytes(t, m))
	if err != nil {
		t.Fatal(err)
	}

	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)

	proj, err := st.GetProjected(h, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	defer proj.Release()
	if got := replayRank(t, proj, 3); !reflect.DeepEqual(got, want[3]) {
		t.Fatalf("rank 3: projected replay diverges (%d vs %d events)", len(got), len(want[3]))
	}
	for _, rank := range []int{0, ranks - 1} {
		if err := proj.Streamer().Replay(rank, func(*trace.Event) {}); err == nil {
			t.Fatalf("rank %d is outside the projection and replays", rank)
		}
	}
	if stats, err := st.Stats(); err != nil || stats.CacheEntries != 0 {
		t.Fatalf("a projected get entered the cache: %+v, %v", stats, err)
	}

	full, err := st.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Release()
	got, err := rankSequences(full.Merged)
	if err != nil {
		t.Fatalf("Get after a projected get: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Get after a projected get replays a wrong trace")
	}
	if gotPred := predict(t, full.Merged); !reflect.DeepEqual(gotPred, wantPred) {
		t.Fatalf("prediction differs from the ingested tree's: total %v vs %v ns", gotPred.TotalNS, wantPred.TotalNS)
	}
	if stats, err := st.Stats(); err != nil || stats.CacheEntries != 1 {
		t.Fatalf("cache holds %d entries, want the whole get's 1 (%v)", stats.CacheEntries, err)
	}

	again, err := st.GetProjected(h, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if again.Merged != full.Merged {
		t.Fatal("a projected get of a resident trace is not served by it")
	}
	if hits, misses := s.Value(obs.CorpusCacheHits), s.Value(obs.CorpusCacheMisses); hits != 1 || misses != 2 {
		t.Fatalf("hit/miss = %d/%d, want 1/2", hits, misses)
	}
}

// predict runs the LogGP simulation over every rank of m.
func predict(t testing.TB, m *merge.Merged) simmpi.Result {
	t.Helper()
	s := merge.NewStreamer(m)
	if err := s.Prepare(1); err != nil {
		t.Fatal(err)
	}
	srcs := make([]simmpi.EventSource, m.NumRanks)
	for rank := range srcs {
		cur, err := s.Cursor(rank)
		if err != nil {
			t.Fatal(err)
		}
		srcs[rank] = cur
	}
	res, err := simmpi.SimulateStreamPar(srcs, mpisim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPatchedWordsCounted: a cold get patches exactly the words whose delta
// token is not zero — none for the first run of a class, whose record is a
// self-delta, and for a perturbed later run the non-zero tokens of its
// DeltaPayload against the first — before and after a reopen rebuilds the
// class's Ref from its file.
func TestPatchedWordsCounted(t *testing.T) {
	const ranks = 16
	encs := [][]byte{
		encodeBytes(t, simMerged(t, multiPhaseSrc, ranks, 0)),
		encodeBytes(t, simMerged(t, multiPhaseSrc, ranks, 1)),
	}
	var payloads [2][]byte
	for i, enc := range encs {
		sp, err := merge.SplitEncoded(enc)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = sp.Payload
	}
	ref, err := merge.NewRef(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	delta, err := merge.DeltaPayload(payloads[1], ref)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, nonZeroTokens(t, delta)}
	if want[1] == 0 {
		t.Fatal("the second run's timings equal the first's")
	}

	dir := t.TempDir()
	st, err := corpus.Open(dir, corpus.Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var hashes []uint64
	for _, enc := range encs {
		h, err := st.IngestBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)
	for pass := 0; pass < 2; pass++ {
		for i, h := range hashes {
			for _, get := range []func() error{
				func() error { _, err := st.GetBytes(h); return err },
				func() error {
					tr, err := st.GetProjected(h, []int{3})
					if err == nil {
						tr.Release()
					}
					return err
				},
			} {
				before := s.Value(obs.CorpusPatchedWords)
				if err := get(); err != nil {
					t.Fatal(err)
				}
				if got := s.Value(obs.CorpusPatchedWords) - before; got != want[i] {
					t.Errorf("pass %d run %d: a cold get patched %d words, want %d", pass, i, got, want[i])
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = corpus.Open(dir, corpus.Options{CacheBytes: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// nonZeroTokens counts the tokens of a well-formed delta that are not zero.
func nonZeroTokens(t testing.TB, delta []byte) int64 {
	t.Helper()
	next := func() uint64 {
		v, n := binary.Uvarint(delta)
		if n <= 0 {
			t.Fatal("malformed delta")
		}
		delta = delta[n:]
		return v
	}
	var nz int64
	for words := next(); words > 0; words-- {
		if next() != 0 {
			next()
			nz++
		}
	}
	return nz
}

// TestClassRepresentativeChecked: a class file whose representative payload
// is not a uvarint vector fails Open, under intact CYPB frames, instead of
// failing every later read of the class.
func TestClassRepresentativeChecked(t *testing.T) {
	dir := t.TempDir()
	st, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestBytes(encodeBytes(t, simMerged(t, multiPhaseSrc, 7, 0))); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "class-*.cyps"))
	if err != nil || len(names) != 1 {
		t.Fatalf("class files: %v, %v", names, err)
	}
	orig, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// "CYPS", version, key, structLen, repLen, then CYPB(structure ++ rep).
	at := 5
	for i := 0; i < 3; i++ {
		_, n := binary.Uvarint(orig[at:])
		if n <= 0 {
			t.Fatal("short class header")
		}
		at += n
	}
	payload, _, err := blockio.Unwrap(orig[at:])
	if err != nil {
		t.Fatal(err)
	}
	payload[len(payload)-1] |= 0x80 // the last word never ends
	var buf bytes.Buffer
	buf.Write(orig[:at])
	w, err := blockio.NewWriter(&buf, blockio.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(names[0], buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = corpus.Open(dir, corpus.Options{})
	if err == nil {
		st.Close()
		t.Fatal("a class file with a malformed representative opened")
	}
	if !strings.Contains(err.Error(), "delta ref") {
		t.Fatalf("Open = %v, want the representative's verdict", err)
	}
}
