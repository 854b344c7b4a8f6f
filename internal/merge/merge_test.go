package merge

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/replay"
	"repro/internal/timestat"
	"repro/internal/trace"
)

const jacobiSrc = `
func main() {
	for var k = 0; k < 10; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
	}
	reduce(0, 8);
}`

// collect runs src on n ranks under CYPRESS compression.
func collect(t testing.TB, src string, n int) (*cst.Tree, []*ctt.RankCTT, [][]trace.Event) {
	t.Helper()
	return collectMode(t, src, n, timestat.ModeMeanStddev)
}

// collectMode is collect with the compressors' time-statistic mode chosen.
func collectMode(t testing.TB, src string, n int, mode timestat.Mode) (*cst.Tree, []*ctt.RankCTT, [][]trace.Event) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := lang.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	tree, err := cst.Build(prog)
	if err != nil {
		t.Fatalf("cst: %v", err)
	}
	comps := make([]*ctt.Compressor, n)
	raws := make([]*trace.CollectorSink, n)
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		comps[i] = ctt.NewCompressor(tree, i, mode)
		raws[i] = &trace.CollectorSink{}
		sinks[i] = teeSink{raws[i], comps[i]}
	}
	if _, err := mpisim.Run(n, mpisim.DefaultParams(), sinks, func(r *mpisim.Rank) {
		interp.Execute(prog, r)
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	ctts := make([]*ctt.RankCTT, n)
	rawEvents := make([][]trace.Event, n)
	for i := range comps {
		ctts[i] = comps[i].Finish()
		rawEvents[i] = raws[i].Events
	}
	return tree, ctts, rawEvents
}

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

func TestJacobiMergeGroups(t *testing.T) {
	n := 16
	tree, ctts, _ := collect(t, jacobiSrc, n)
	m, err := All(ctts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRanks != n {
		t.Fatalf("NumRanks = %d", m.NumRanks)
	}
	// The paper's Figure 4/13 grouping: interior ranks share one group on
	// the send/recv leaves; loop counts are identical for all ranks.
	loop := tree.Root.Children[0]
	loopEntries := m.Entries[loop.GID]
	if len(loopEntries) != 1 {
		t.Fatalf("loop entries = %d, want 1 (all ranks same count)", len(loopEntries))
	}
	if loopEntries[0].Ranks.Len() != n {
		t.Fatalf("loop group covers %d ranks", loopEntries[0].Ranks.Len())
	}
	if loopEntries[0].Data.Counts().String() != "[<10>]" {
		t.Fatalf("merged loop counts = %s", loopEntries[0].Data.Counts().String())
	}
	// The first send leaf (rank < size-1): ranks 0..n-2 share one relative-
	// encoded record group.
	var sendLeaf *cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		if sendLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpSend {
			sendLeaf = v
		}
	})
	se := m.Entries[sendLeaf.GID]
	if len(se) != 1 {
		t.Fatalf("send leaf entries = %d, want 1", len(se))
	}
	if se[0].Ranks.Len() != n-1 {
		t.Fatalf("send group covers %d ranks, want %d", se[0].Ranks.Len(), n-1)
	}
	rec := se[0].Data.Records()[0]
	if !rec.RelEncoded || rec.PeerRel != 1 {
		t.Fatalf("send record not relative-encoded: %+v", rec)
	}
	if rec.Count != 10 {
		t.Fatalf("send count = %d", rec.Count)
	}
	// Time stats aggregated across the group.
	if rec.Time.N != 10*(int64(n)-1) {
		t.Fatalf("merged time samples = %d", rec.Time.N)
	}
}

func TestMergedSizeNearConstantInP(t *testing.T) {
	sizes := map[int]int64{}
	for _, n := range []int{4, 16, 64} {
		_, ctts, _ := collect(t, jacobiSrc, n)
		m, err := All(ctts, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sz, err := m.Encode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sizes[n] = sz
	}
	// Near-constant: 16x more ranks must grow the file by far less than 4x.
	if sizes[64] > sizes[4]*4 {
		t.Fatalf("merged trace grows with P: %v", sizes)
	}
}

func TestReplayFromMergedLossless(t *testing.T) {
	n := 8
	_, ctts, raw := collect(t, jacobiSrc, n)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < n; rank++ {
		seq, err := replay.Sequence(m.ForRank(rank), rank)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if err := replay.Equivalent(raw[rank], seq); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestParallelSerialAgree(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 12)
	// Serial consumes the CTTs, so collect twice.
	_, ctts2, _ := collect(t, jacobiSrc, 12)
	mp, err := All(ctts, 4)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Serial(ctts2)
	if err != nil {
		t.Fatal(err)
	}
	if mp.GroupCount() != ms.GroupCount() {
		t.Fatalf("group counts differ: parallel %d vs serial %d", mp.GroupCount(), ms.GroupCount())
	}
	for rank := 0; rank < 12; rank++ {
		a, err := replay.Sequence(mp.ForRank(rank), rank)
		if err != nil {
			t.Fatal(err)
		}
		b, err := replay.Sequence(ms.ForRank(rank), rank)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.Equivalent(a, b); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	n := 6
	_, ctts, raw := collect(t, jacobiSrc, n)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRanks != n || got.EventCount != m.EventCount {
		t.Fatalf("header mismatch: %+v", got)
	}
	for rank := 0; rank < n; rank++ {
		seq, err := replay.Sequence(got.ForRank(rank), rank)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if err := replay.Equivalent(raw[rank], seq); err != nil {
			t.Fatalf("rank %d after decode: %v", rank, err)
		}
	}
}

func TestGzipSmallerOrClose(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 16)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var plain, zipped bytes.Buffer
	ps, err := m.Encode(&plain)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := m.EncodeGzip(&zipped)
	if err != nil {
		t.Fatal(err)
	}
	if zs <= 0 || ps <= 0 {
		t.Fatal("zero sizes")
	}
	if zs > ps+64 {
		t.Fatalf("gzip hurt badly: %d vs %d", zs, ps)
	}
}

func TestDecodeErrors(t *testing.T) {
	_, ctts, _ := collect(t, `func main() { barrier(); }`, 2)
	m, _ := All(ctts, 0)
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	slack := padCST(full, make([]byte, 1<<17))

	for _, tc := range []struct {
		name string
		in   []byte
		want string // substring of the error; "" accepts any
	}{
		{"bad magic", []byte("NOPE"), "bad magic"},
		{"empty input", nil, "bad magic"},
		// Truncation anywhere must error, not panic.
		{"cut in header", full[:5], ""},
		{"cut in CST", full[:20], "runs past the end of the input"},
		{"cut mid-entries", full[:len(full)/2], ""},
		// The cursor knows where it stopped: a short read names the offset.
		{"cut in last varint", full[:len(full)-1], fmt.Sprintf("at offset %d", len(full)-1)},
		// A CST shorter than its declared length used to decode from
		// wherever the CST parser's read-ahead ended, while SplitEncoded
		// refused the same bytes.
		{"CST under-consumes its declared length", slack, "after the last vertex"},
	} {
		for name, decode := range map[string]func([]byte) error{
			"Decode": func(in []byte) error { _, err := Decode(bytes.NewReader(in)); return err },
			"DecodeSelectAuto": func(in []byte) error {
				_, err := DecodeSelectAuto(in, SelectRanks(0), 1)
				return err
			},
		} {
			err := decode(tc.in)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s = %v, want error containing %q", tc.name, name, err, tc.want)
			}
		}
	}
	if _, err := SplitEncoded(slack); err == nil || !strings.Contains(err.Error(), "after the last vertex") {
		t.Errorf("SplitEncoded of the under-consumed CST = %v, want the decoder's verdict", err)
	}
}

// padCST re-emits enc with its header's CST length declaring len(pad) more
// bytes than the CST text uses, and pad inserted after the text so every
// later offset still lines up.
func padCST(enc, pad []byte) []byte {
	lenOff := len(fileMagic)
	for i := 0; i < 5; i++ { // version, tree hash, ranks, events, hist flag
		_, n := binary.Uvarint(enc[lenOff:])
		lenOff += n
	}
	treeLen, n := binary.Uvarint(enc[lenOff:])
	treeEnd := lenOff + n + int(treeLen)
	out := binary.AppendUvarint(bytes.Clone(enc[:lenOff]), treeLen+uint64(len(pad)))
	out = append(out, enc[lenOff+n:treeEnd]...)
	out = append(out, pad...)
	return append(out, enc[treeEnd:]...)
}

// cstTailSeed is a 16-rank encoding whose declared CST region ends with a
// line the CST text does not hold.
func cstTailSeed(t testing.TB) []byte {
	var buf bytes.Buffer
	if _, err := blockedFixture(t, 16).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return padCST(buf.Bytes(), []byte("x\n"))
}

// TestCSTRegionConsumedExactly: the vertex sections start at the declared CST
// boundary, so bytes the CST text leaves before it belong to no grammar. Every
// reader of the header refuses them, however few.
func TestCSTRegionConsumedExactly(t *testing.T) {
	in := cstTailSeed(t)
	for name, read := range map[string]func() error{
		"Decode":           func() error { _, err := Decode(bytes.NewReader(in)); return err },
		"DecodeSelectAuto": func() error { _, err := DecodeSelectAuto(in, SelectRanks(0), 0); return err },
		"SplitEncoded":     func() error { _, err := SplitEncoded(in); return err },
	} {
		if err := read(); err == nil || !strings.Contains(err.Error(), "2 bytes after the last vertex") {
			t.Errorf("%s = %v, want the trailing CST bytes refused", name, err)
		}
	}
}

func TestHashMismatchRejected(t *testing.T) {
	_, a, _ := collect(t, `func main() { barrier(); }`, 1)
	_, b, _ := collect(t, `func main() { allreduce(8); }`, 1)
	if _, err := Pair(FromRank(a[0]), FromRank(b[0])); err == nil {
		t.Fatal("different programs merged")
	}
}

func TestDivergentDataKeptSeparate(t *testing.T) {
	// Rank pairs exchange either 5 or 9 messages: the send loop's iteration
	// counts split the even ranks into two groups.
	src := `
func main() {
	var pair = rank / 2;
	var k = 5;
	if pair % 2 == 1 { k = 9; }
	if rank % 2 == 0 {
		for var i = 0; i < k; i = i + 1 { send(rank + 1, 64, 0); }
	} else {
		for var i = 0; i < k; i = i + 1 { recv(rank - 1, 64, 0); }
	}
}`
	tree, ctts, _ := collect(t, src, 8)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var loopV *cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		if loopV == nil && v.Kind == cst.KindLoop {
			loopV = v
		}
	})
	es := m.Entries[loopV.GID]
	if len(es) != 2 {
		t.Fatalf("send-loop entries = %d, want 2 (k=5 vs k=9)", len(es))
	}
	if es[0].Ranks.Len() != 2 || es[1].Ranks.Len() != 2 {
		t.Fatalf("groups not 2/2: %v vs %v", es[0].Ranks, es[1].Ranks)
	}
}

func TestCollectiveRootsStayAbsolute(t *testing.T) {
	tree, ctts, _ := collect(t, `func main() { bcast(0, 512); }`, 8)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var leaf *cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		if leaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpBcast {
			leaf = v
		}
	})
	es := m.Entries[leaf.GID]
	if len(es) != 1 {
		t.Fatalf("bcast entries = %d, want 1", len(es))
	}
	rec := es[0].Data.Records()[0]
	if rec.RelEncoded || rec.Ev.Peer != 0 {
		t.Fatalf("collective root mishandled: %+v", rec)
	}
}

func TestAllNoRelativeSplitsStencilGroups(t *testing.T) {
	// Without the relative ranking encoding, every interior rank's records
	// keep distinct absolute peers, so groups cannot merge (the ablation the
	// paper's adopted encoding avoids).
	_, withRel, _ := collect(t, jacobiSrc, 10)
	m1, err := All(withRel, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, withoutRel, _ := collect(t, jacobiSrc, 10)
	m2, err := AllNoRelative(withoutRel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.GroupCount() <= m1.GroupCount() {
		t.Fatalf("no-relative groups %d should exceed relative groups %d",
			m2.GroupCount(), m1.GroupCount())
	}
	// Replay must still be lossless: absolute peers are kept per group.
	for rank := 0; rank < 10; rank++ {
		a, err := replay.Sequence(m1.ForRank(rank), rank)
		if err != nil {
			t.Fatal(err)
		}
		b, err := replay.Sequence(m2.ForRank(rank), rank)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.Equivalent(a, b); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}
