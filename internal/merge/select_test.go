package merge

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// divergentSrc pairs ranks with different loop trip counts, so the merged
// tree has several rank groups per vertex — the regime where a rank
// projection actually skips payload sections.
const divergentSrc = `
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

// buildMerged traces src and merges the per-rank trees.
func buildMerged(t testing.TB, src string, ranks int) *Merged {
	t.Helper()
	_, ctts, _ := collect(t, src, ranks)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func encodePlain(t testing.TB, m *Merged) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gzipped wraps enc in one gzip member, the way older writers stored
// indexed traces; the reader still accepts such files.
func gzipped(t testing.TB, enc []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(enc); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeIndexed(t testing.TB, m *Merged) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := m.EncodeIndexed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("EncodeIndexed reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// replaySeq replays one rank through the reference per-rank walk.
func replaySeq(t testing.TB, m *Merged, rank int) []trace.Event {
	t.Helper()
	var out []trace.Event
	if err := replay.Events(m.ForRank(rank), rank, func(e *trace.Event) {
		out = append(out, *e)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// streamSeq replays one rank through the Streamer (the path that refuses a
// rank a projection does not serve).
func streamSeq(t testing.TB, m *Merged, rank int) []trace.Event {
	t.Helper()
	var out []trace.Event
	if err := NewStreamer(m).Replay(rank, func(e *trace.Event) {
		out = append(out, *e)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func countEntries(m *Merged) (n int) {
	for _, es := range m.Entries {
		n += len(es)
	}
	return n
}

func TestSelection(t *testing.T) {
	all := SelectAll()
	if !all.All() || !all.Contains(0) || !all.Contains(1<<20) {
		t.Fatal("SelectAll must contain every rank")
	}
	s := SelectRanks(5, 1, 5, 3)
	if s.All() {
		t.Fatal("SelectRanks must not report All")
	}
	if got := s.Ranks(); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("Ranks() = %v, want sorted dedup [1 3 5]", got)
	}
	for _, r := range []int{1, 3, 5} {
		if !s.Contains(r) {
			t.Fatalf("Contains(%d) = false", r)
		}
	}
	for _, r := range []int{0, 2, 4, 6} {
		if s.Contains(r) {
			t.Fatalf("Contains(%d) = true", r)
		}
	}
	empty := SelectRanks()
	if empty.All() || empty.Contains(0) || len(empty.Ranks()) != 0 {
		t.Fatal("empty selection must contain nothing")
	}
}

// TestEncodeIndexedBackwardCompat pins the compatibility contract of the CYPI
// sidecar: an indexed encoding is the plain v1 body byte-for-byte, followed by
// the sidecar, and the existing full decoder reads it unchanged.
func TestEncodeIndexedBackwardCompat(t *testing.T) {
	m := buildMerged(t, jacobiSrc, 7)
	plain := encodePlain(t, m)
	indexed := encodeIndexed(t, m)

	if !bytes.HasPrefix(indexed, plain) {
		t.Fatal("indexed encoding does not start with the plain v1 body")
	}
	if _, _, ok := parseIndex(indexed); !ok {
		t.Fatal("indexed encoding carries no valid CYPI sidecar")
	}
	if _, _, ok := parseIndex(plain); ok {
		t.Fatal("plain encoding parses as carrying a CYPI sidecar")
	}

	// The v1 decoder must accept the indexed file (the sidecar rides in the
	// historical trailing-bytes tolerance) and normalize to the same bytes.
	want := encodePlain(t, mustDecode(t, plain))
	got := encodePlain(t, mustDecode(t, indexed))
	if !bytes.Equal(want, got) {
		t.Fatal("full Decode of indexed encoding diverges from plain")
	}

	// An indexed encoding inside a gzip member reads like any gzip trace.
	got = encodePlain(t, mustDecode(t, gzipped(t, indexed)))
	if !bytes.Equal(want, got) {
		t.Fatal("full Decode of gzip-indexed encoding diverges from plain")
	}
}

func mustDecode(t testing.TB, enc []byte) *Merged {
	t.Helper()
	m, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDecodeSelectEquivalence is the core projection contract: for any
// selection, over both indexed and index-less encodings, a selective decode
// replays every selected rank identically to a full decode, and refuses
// every other rank and every whole-tree operation with an error.
func TestDecodeSelectEquivalence(t *testing.T) {
	fixtures := []struct {
		name  string
		src   string
		ranks int
	}{
		{"jacobi7", jacobiSrc, 7},
		{"divergent8", divergentSrc, 8},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			m0 := buildMerged(t, fx.src, fx.ranks)
			plain := encodePlain(t, m0)
			indexed := encodeIndexed(t, m0)
			full := mustDecode(t, plain)
			canon := encodePlain(t, full)
			wantSeq := make([][]trace.Event, fx.ranks)
			for r := 0; r < fx.ranks; r++ {
				wantSeq[r] = replaySeq(t, full, r)
			}

			sels := []struct {
				name string
				sel  Selection
			}{
				{"all", SelectAll()},
				{"none", SelectRanks()},
				{"first", SelectRanks(0)},
				{"last", SelectRanks(fx.ranks - 1)},
				{"pair", SelectRanks(0, fx.ranks/2)},
			}
			encs := []struct {
				name string
				enc  []byte
			}{
				{"plain", plain},
				{"indexed", indexed},
			}
			for _, sc := range sels {
				for _, ec := range encs {
					t.Run(sc.name+"/"+ec.name, func(t *testing.T) {
						m, err := DecodeSelectAuto(ec.enc, sc.sel, 1)
						if err != nil {
							t.Fatal(err)
						}
						if m.NumRanks != full.NumRanks || len(m.Entries) != len(full.Entries) {
							t.Fatalf("projected shape %d ranks/%d vertices, want %d/%d",
								m.NumRanks, len(m.Entries), full.NumRanks, len(full.Entries))
						}
						s := NewStreamer(m)
						for r := 0; r < fx.ranks; r++ {
							if !sc.sel.Contains(r) {
								if err := s.Replay(r, func(*trace.Event) {}); err == nil {
									t.Fatalf("unselected rank %d replays", r)
								}
								continue
							}
							if got := replaySeq(t, m, r); !reflect.DeepEqual(got, wantSeq[r]) {
								t.Fatalf("selected rank %d via rankView: %d events, want %d", r, len(got), len(wantSeq[r]))
							}
							if got := streamSeq(t, m, r); !reflect.DeepEqual(got, wantSeq[r]) {
								t.Fatalf("selected rank %d via streamer: %d events, want %d", r, len(got), len(wantSeq[r]))
							}
						}
						if sc.sel.All() {
							if got := encodePlain(t, m); !bytes.Equal(got, canon) {
								t.Fatalf("SelectAll tree re-encodes to %d bytes, want the full tree's %d", len(got), len(canon))
							}
							return
						}
						if _, err := m.Encode(io.Discard); err == nil {
							t.Fatal("a projected tree encodes")
						}
						if err := s.Prepare(1); err == nil {
							t.Fatal("Prepare over a projected tree returned no error")
						}
						if err := s.ReplayAll(1, func(int, *trace.Event) {}); err == nil {
							t.Fatal("ReplayAll over a projected tree returned no error")
						}
						if _, err := Pair(m, mustDecode(t, plain)); err == nil {
							t.Fatal("Pair took a projected tree")
						}
					})
				}
			}
		})
	}
}

// TestDecodeSelectCounters pins the projection telemetry: every declared
// entry is either eager or skipped, skipped bytes are real, and the tree holds
// exactly the eager entries, each with its payload.
func TestDecodeSelectCounters(t *testing.T) {
	m0 := buildMerged(t, divergentSrc, 8)
	enc := encodeIndexed(t, m0)

	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)

	m, err := DecodeSelectAuto(enc, SelectRanks(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Value(obs.SelDecodes); got != 1 {
		t.Fatalf("sel_decodes = %d, want 1", got)
	}
	if got := s.Value(obs.SelFallbacks); got != 0 {
		t.Fatalf("sel_fallbacks = %d, want 0", got)
	}
	eager, skipped := s.Value(obs.SelEntriesEager), s.Value(obs.SelEntriesSkipped)
	if declared := int64(countEntries(m0)); eager+skipped != declared {
		t.Fatalf("eager %d + skipped %d != %d declared entries", eager, skipped, declared)
	}
	if held := int64(countEntries(m)); eager != held {
		t.Fatalf("eager %d != %d entries in the tree", eager, held)
	}
	if eager == 0 || skipped == 0 {
		t.Fatalf("rank-0 projection of divergent tree: eager=%d skipped=%d, want both > 0", eager, skipped)
	}
	if b := s.Value(obs.SelBytesSkipped); b == 0 {
		t.Fatal("sel_bytes_skipped = 0 with skipped entries")
	}
	if b := s.Value(obs.SelBytesMaterialized); b == 0 {
		t.Fatal("sel_bytes_materialized = 0 with eager entries")
	}
	// Selecting every rank skips nothing.
	skippedB := s.Value(obs.SelBytesSkipped)
	if _, err := DecodeSelectAuto(enc, SelectAll(), 1); err != nil {
		t.Fatal(err)
	}
	if s.Value(obs.SelEntriesSkipped) != skipped || s.Value(obs.SelBytesSkipped) != skippedB {
		t.Fatal("SelectAll decode skipped payload sections")
	}
	if got := s.Value(obs.SelFallbacks); got != 0 {
		t.Fatalf("sel_fallbacks = %d after SelectAll, want 0", got)
	}

	for gid, es := range m.Entries {
		for i := range es {
			if es[i].Data == nil || !es[i].Ranks.Contains(0) {
				t.Fatalf("vertex %d entry %d: payload %v, ranks %v; want rank 0's decoded group", gid, i, es[i].Data != nil, es[i].Ranks)
			}
		}
	}

	// The counters must also surface in the rendered report.
	var rep bytes.Buffer
	if err := s.Report().WriteText(&rep); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sel_decodes", "sel_entries_skipped", "sel_bytes_skipped"} {
		if !bytes.Contains(rep.Bytes(), []byte(name)) {
			t.Fatalf("report omits %s:\n%s", name, rep.String())
		}
	}
}

// TestDecodeSelectFallback: damaged or lying sidecars must never fail a
// selective decode — a sidecar that parses but disagrees with the stream
// falls back to the full decoder, and one that no longer parses is treated
// as trailing junk by the index-less walk.
func TestDecodeSelectFallback(t *testing.T) {
	m0 := buildMerged(t, jacobiSrc, 7)
	plain := encodePlain(t, m0)
	want := replaySeq(t, mustDecode(t, plain), 2)

	check := func(t *testing.T, enc []byte, wantFallback bool) {
		t.Helper()
		s := obs.New()
		obs.Attach(s, nil)
		defer obs.Attach(nil, nil)
		m, err := DecodeSelectAuto(enc, SelectRanks(2), 1)
		if err != nil {
			t.Fatal(err)
		}
		if wantFallback && s.Value(obs.SelFallbacks) == 0 {
			t.Fatal("expected a fallback to the full decoder")
		}
		if got := streamSeq(t, m, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("rank 2 replay diverges (%d vs %d events)", len(got), len(want))
		}
	}

	t.Run("lying-index", func(t *testing.T) {
		// A structurally valid sidecar whose entry count disagrees with the
		// stream: the selective walk must reject it and fall back.
		enc := append(append([]byte(nil), plain...), appendIndex(nil, []uint64{3, 1, 4})...)
		check(t, enc, true)
	})
	t.Run("truncated-sidecar", func(t *testing.T) {
		indexed := encodeIndexed(t, m0)
		check(t, indexed[:len(indexed)-1], false)
	})
	t.Run("corrupt-sidecar", func(t *testing.T) {
		indexed := encodeIndexed(t, m0)
		enc := append([]byte(nil), indexed...)
		enc[len(plain)+1] ^= 0xff // inside the sidecar, after the body
		check(t, enc, false)
	})
}

// TestDecodeSelectAuto covers the container sniffing wrapper: gzip-indexed
// and CYPB-blocked files both reach the selective decoder.
func TestDecodeSelectAuto(t *testing.T) {
	m0 := buildMerged(t, divergentSrc, 8)
	plain := encodePlain(t, m0)
	want := replaySeq(t, mustDecode(t, plain), 5)

	gz := gzipped(t, encodeIndexed(t, m0))
	var blocked bytes.Buffer
	if _, err := m0.EncodeBlocked(&blocked, 1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"raw", plain},
		{"gzip-indexed", gz},
		{"blocked", blocked.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DecodeSelectAuto(tc.data, SelectRanks(5), 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := replaySeq(t, m, 5); !reflect.DeepEqual(got, want) {
				t.Fatalf("rank 5 replay diverges (%d vs %d events)", len(got), len(want))
			}
		})
	}
}

// TestDecodeSelectStructureAllocs pins the projection's serving economics: a
// structure-only selective decode must not allocate per skipped payload, so
// its allocation count stays flat as the rank count (and payload volume)
// grows. The jacobi tree has the same ~3 rank groups per vertex at any rank
// count, which isolates exactly the per-payload cost.
func TestDecodeSelectStructureAllocs(t *testing.T) {
	measure := func(ranks int) float64 {
		enc := encodeIndexed(t, buildMerged(t, jacobiSrc, ranks))
		step := func() {
			if _, err := DecodeSelectAuto(enc, SelectRanks(), 1); err != nil {
				t.Fatal(err)
			}
		}
		step()
		return testing.AllocsPerRun(100, step)
	}
	small, large := measure(16), measure(64)
	// Full Decode of the 16-rank fixture budgets 80 allocs (TestDecodeAllocs);
	// structure-only decode decodes no VData and must come in under the same
	// bound at 4x the ranks.
	if small > 80 || large > 80 {
		t.Errorf("structure-only DecodeSelectAuto allocates %.1f (16 ranks) / %.1f (64 ranks) allocs/op, want <= 80", small, large)
	}
	if large > small+16 {
		t.Errorf("structure-only allocs grew with rank count: %.1f at 16 ranks -> %.1f at 64", small, large)
	}
}

// FuzzDecodeSelect checks the selective decoder against the full decoder on
// arbitrary bytes: whenever full Decode accepts an input, DecodeSelectAuto must
// accept it too (the fallback guarantees this), replay each selected rank
// identically, and refuse every unselected rank and Encode with an error.
// When full Decode rejects an input the only requirement is no panic —
// skipped sections are framing-validated only, so the selective path may
// legitimately accept streams whose payload contents are corrupt.
func FuzzDecodeSelect(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s, uint8(0), uint8(1))
		m, err := Decode(bytes.NewReader(s))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.EncodeIndexed(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(2), uint8(6))
	}
	f.Add([]byte("CYPI"), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, in []byte, ra, rb uint8) {
		full, ferr := Decode(bytes.NewReader(in))
		sel := SelectRanks(int(ra), int(rb))
		m, err := DecodeSelectAuto(in, sel, 1)
		if ferr != nil {
			return // robustness only: neither decoder may panic
		}
		if err != nil {
			t.Fatalf("DecodeSelectAuto rejects input Decode accepts: %v", err)
		}
		if _, err := m.Encode(io.Discard); err == nil {
			t.Fatal("a projected tree encodes")
		}
		// A header may claim 2^24 ranks, and a Streamer sizes its rank memo
		// by the claim.
		if !replayBounded(full) || m.NumRanks > 1<<16 {
			return
		}
		// Selected ranks are below 256, so the first 257 ranks hold every
		// one of them and at least one rank outside the selection.
		s := NewStreamer(m)
		for r := 0; r < min(m.NumRanks, 257); r++ {
			if !sel.Contains(r) {
				if err := s.Replay(r, func(*trace.Event) {}); err == nil {
					t.Fatalf("unselected rank %d replays", r)
				}
				continue
			}
			var want, got []trace.Event
			wantErr := replay.Events(full.ForRank(r), r, func(e *trace.Event) { want = append(want, *e) })
			gotErr := s.Replay(r, func(e *trace.Event) { got = append(got, *e) })
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("rank %d: full err=%v, projected err=%v", r, wantErr, gotErr)
			}
			if wantErr == nil && !reflect.DeepEqual(want, got) {
				t.Fatalf("rank %d: projected replay diverges (%d vs %d events)", r, len(got), len(want))
			}
		}
	})
}
