package merge

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/rankset"
	"repro/internal/replay"
	"repro/internal/stride"
	"repro/internal/trace"
)

// fuzzSeeds builds encoded merged traces from representative fixtures to seed
// the corpus: a stencil with interior/edge divergence, trivial collectives,
// and a control-flow-divergent pairing where loop counts differ across ranks.
func fuzzSeeds(f testing.TB) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, tc := range []struct {
		src   string
		ranks int
	}{
		{jacobiSrc, 7},
		{`func main() { barrier(); }`, 2},
		{`
func main() {
	var pair = rank / 2;
	var k = 5;
	if pair % 2 == 1 { k = 9; }
	if rank % 2 == 0 {
		for var i = 0; i < k; i = i + 1 { send(rank + 1, 64, 0); }
	} else {
		for var i = 0; i < k; i = i + 1 { recv(rank - 1, 64, 0); }
	}
}`, 8},
	} {
		_, ctts, _ := collect(f, tc.src, tc.ranks)
		m, err := All(ctts, 0)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// brokenCSTSeeds returns two encodings of one traced run whose embedded CST
// text was edited in place (same length, so the length prefix still frames
// it) into the sibling lists cst.Decode refuses: a repeated (site, arm) key,
// and an if site whose two arms are no longer adjacent.
func brokenCSTSeeds(t testing.TB) (dup, split []byte) {
	t.Helper()
	_, ctts, _ := collect(t, `
func main() {
	var even = rank % 2 == 0;
	var lo = rank - 1;
	var hi = rank + 1;
	if even { send(hi, 8, 0); } else { recv(lo, 8, 0); }
	if even { recv(hi, 8, 1); } else { send(lo, 8, 1); }
}`, 2)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// Vertex lines read "gid kind site arm ..."; kind 2 is a branch arm. The
	// root's children are then/else of the first if, then/else of the second.
	arms := regexp.MustCompile(`(?m)^\d+ 2 (\d+ [01]) `).FindAllSubmatchIndex(enc, -1)
	if len(arms) != 4 {
		t.Fatalf("found %d branch-arm lines in the embedded CST, want 4", len(arms))
	}
	key := func(i int) []byte { return enc[arms[i][2]:arms[i][3]] }
	if len(key(1)) != len(key(2)) {
		t.Fatalf("site numbers %q and %q differ in width", key(1), key(2))
	}
	dup = bytes.Clone(enc)
	copy(dup[arms[1][2]:], key(0)) // then, then, ...
	split = bytes.Clone(enc)
	copy(split[arms[1][2]:], key(2)) // then A, then B, else A, else B
	copy(split[arms[2][2]:], key(1))
	return dup, split
}

// TestDecodeRejectsBrokenCST: a file whose CST would make the cursor's
// first-match child lookup or the per-site reach counter ambiguous is an
// error at decode, on the full and the projected path, never a panic.
func TestDecodeRejectsBrokenCST(t *testing.T) {
	dup, split := brokenCSTSeeds(t)
	for _, tc := range []struct {
		enc  []byte
		want string
	}{
		{dup, "duplicate child key"},
		{split, "are not adjacent"},
	} {
		if _, err := Decode(bytes.NewReader(tc.enc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Decode = %v, want error containing %q", err, tc.want)
		}
		if _, err := DecodeSelectAuto(tc.enc, SelectRanks(0), 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("DecodeSelectAuto = %v, want error containing %q", err, tc.want)
		}
	}
}

// hostileRankSeeds returns a valid encoding (the 7-rank stencil) with one
// varint changed: the header's rank count, rewritten to 1<<62 and to 1<<64-1
// (-1 once it is an int). Nothing else in the stream depends on it, so before
// the header check both decoded cleanly and NewStreamer panicked in makeslice.
func hostileRankSeeds(t testing.TB) [][]byte {
	t.Helper()
	enc := fuzzSeeds(t)[0]
	off := len(fileMagic) + 1 // magic, one-byte version
	_, n := binary.Uvarint(enc[off:])
	off += n // tree hash
	ranks, n := binary.Uvarint(enc[off:])
	if ranks != 7 {
		t.Fatalf("header rank count reads %d, want 7", ranks)
	}
	var out [][]byte
	for _, hostile := range []uint64{1 << 62, 1<<64 - 1} {
		patched := binary.AppendUvarint(bytes.Clone(enc[:off]), hostile)
		out = append(out, append(patched, enc[off+n:]...))
	}
	return out
}

// TestDecodeRejectsHostileRankCount: every decode entry point refuses a rank
// count outside [1, maxEntries] with an error, so no consumer ever sizes
// per-rank state from it.
func TestDecodeRejectsHostileRankCount(t *testing.T) {
	const want = "implausible rank count"
	for _, enc := range hostileRankSeeds(t) {
		if _, err := Decode(bytes.NewReader(enc)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Decode = %v, want error containing %q", err, want)
		}
		if _, err := DecodeSelectAuto(enc, SelectRanks(0), 1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("DecodeSelectAuto = %v, want error containing %q", err, want)
		}
		if _, err := SplitEncoded(enc); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("SplitEncoded = %v, want error containing %q", err, want)
		}
	}
}

// hostileRankSetSeeds returns encodings the decoder accepts whose rank sets
// break what the Streamer's rank table might be tempted to assume: setRuns
// checks a set's run order and strides, but neither that its members lie in
// [0, NumRanks) nor that the sets of one vertex are disjoint. Each seed is
// the 8-rank divergent fixture with the first two rank sets of a multi-group
// vertex replaced: a run of 2^62 members (a table filled by counting to
// Count never returns), the same with a stride whose last member overflows
// int64, a member past NumRanks (an out-of-range cell), a run starting below
// zero, and two entries that both claim ranks 2 and 3 (the first must win,
// as it does in the scan).
func hostileRankSetSeeds(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	fixture := fuzzSeeds(t)[2]
	for _, sets := range [][2][]stride.Run{
		{{{First: 0, Stride: 1, Count: 1 << 62}}, {{First: 1, Stride: 2, Count: 2}}},
		{{{First: 1, Stride: 3, Count: 1 << 62}}, {{First: 0, Stride: 2, Count: 3}}},
		{{{First: 0, Stride: 2, Count: 3}}, {{First: 5, Stride: 1, Count: 10}}},
		{{{First: -4, Stride: 2, Count: 5}}, {{First: 1, Stride: 2, Count: 3}}},
		{{{First: 0, Stride: 1, Count: 4}}, {{First: 2, Stride: 1, Count: 4}}},
	} {
		m, err := Decode(bytes.NewReader(fixture))
		if err != nil {
			t.Fatal(err)
		}
		gid := -1
		for g, es := range m.Entries {
			if len(es) >= 2 {
				gid = g
				break
			}
		}
		if gid < 0 {
			t.Fatal("divergent fixture has no multi-group vertex")
		}
		for i, runs := range sets {
			m.Entries[gid][i].Ranks = rankset.FromRuns(runs)
		}
		out = append(out, encodeBytes(t, m))
	}
	return out
}

// shapeSplitSrc splits each of its two comm leaves into one rank group per
// rank, two records of two occurrences each, by message size and absolute
// peer: four entries a vertex that no merge folds and one replay shape.
const shapeSplitSrc = `
func main() {
	for var i = 0; i < 4; i = i + 1 {
		if rank % 2 == 0 {
			send(rank + 1, 64 + rank * 8 + i / 2, 0);
		} else {
			recv(rank - 1, 64 + (rank - 1) * 8 + i / 2, 0);
		}
	}
}`

// shapeSeeds are the inputs the replay classes must tell apart or may not:
// the 8-rank shapeSplitSrc fixture as traced (entries of one vertex with equal
// shape but different size and peer: one class a leaf), the same with one
// entry's run lengths moved from 2+2 to 1+3 (equal control vectors, cycles
// and record count, one Count apart: must not share, and replays 1+3), and
// with one run length 2^33 (a K past 32 bits is an error from the skeleton
// build or never reached — here the loop stops at 4 — but never wrapped).
func shapeSeeds(t testing.TB) [][]byte {
	t.Helper()
	fixture := encodeBytes(t, buildMerged(t, shapeSplitSrc, 8))
	out := [][]byte{fixture}
	for _, counts := range [][2]int64{{1, 3}, {1 << 33, 2}} {
		m, err := Decode(bytes.NewReader(fixture))
		if err != nil {
			t.Fatal(err)
		}
		edited := false
		for _, es := range m.Entries {
			if len(es) == 4 && len(es[1].Data.Records) == 2 {
				es[1].Data.Records[0].Count, es[1].Data.Records[1].Count = counts[0], counts[1]
				edited = true
				break
			}
		}
		if !edited {
			t.Fatal("shapeSplitSrc no longer splits a leaf into four two-record entries")
		}
		out = append(out, encodeBytes(t, m))
	}
	return out
}

// TestShapeSeedsShareOnlyShapes replays the shape seeds through ReplayAll
// against the rankView walk and pins how many classes each may form: senders
// and receivers, and one more for the entry whose run lengths were edited.
func TestShapeSeedsShareOnlyShapes(t *testing.T) {
	for k, enc := range shapeSeeds(t) {
		m, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("seed %d: %v", k, err)
		}
		s := NewStreamer(m)
		got := make([][]trace.Event, m.NumRanks)
		if err := s.ReplayAll(1, func(rank int, e *trace.Event) { got[rank] = append(got[rank], *e) }); err != nil {
			t.Fatalf("seed %d: %v", k, err)
		}
		for rank := range got {
			if want := rankViewSeq(t, m, rank); !reflect.DeepEqual(want, got[rank]) {
				t.Errorf("seed %d: rank %d differs from rankView", k, rank)
			}
		}
		want := 2
		if k > 0 {
			want = 3
		}
		if cc := s.ClassCount(); cc != want {
			t.Errorf("seed %d: %d replay classes, want %d", k, cc, want)
		}
	}
}

// FuzzDecodeRoundTrip feeds arbitrary bytes to the slab-backed decoder and
// checks two properties:
//
//  1. Robustness: Decode never panics; malformed input returns an error.
//  2. Idempotent round trip: for any input that decodes, one Decode-Encode
//     pass is a normal form — Encode(Decode(Encode(Decode(in)))) is
//     byte-identical to Encode(Decode(in)). (The first pass may legitimately
//     differ from the raw input: the v1 format drops the second timing moment
//     under mean-only mode, so re-encoding is normalizing, not lossy.)
//
// The seed corpus holds well-formed traces from the merge fixtures so the
// mutator starts from deep inside the format rather than fishing for the
// magic header.
func FuzzDecodeRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	dup, split := brokenCSTSeeds(f)
	f.Add(dup)
	f.Add(split)
	f.Add(cstTailSeed(f))
	f.Add([]byte{})
	f.Add([]byte("CYPRESS-MERGE"))
	for _, s := range hostileRankSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Decode(bytes.NewReader(in))
		if err != nil {
			return // malformed input must error, not panic
		}
		if m.NumRanks < 1 || m.NumRanks > maxEntries {
			t.Fatalf("decoded rank count %d outside [1, %d]", m.NumRanks, maxEntries)
		}
		var b1 bytes.Buffer
		if _, err := m.Encode(&b1); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
		m2, err := Decode(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded trace failed: %v", err)
		}
		var b2 bytes.Buffer
		if _, err := m2.Encode(&b2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("Encode∘Decode not idempotent: %d vs %d bytes", b1.Len(), b2.Len())
		}
	})
}

// replayBudget bounds how much replay work a fuzz input may demand: decoded
// trees are untrusted, and a loop vertex with a huge activation count but an
// empty body would spin the walker for 2^60 iterations without emitting a
// single event. Inputs whose total iteration upper bound or vertex count
// exceeds the budget are skipped (they decoded fine, which is all
// FuzzDecodeRoundTrip already guarantees).
const replayBudget = 1 << 10

// replayBounded reports whether m's walk cost is bounded enough to replay:
// every loop/recursion activation count is small and their sum (an upper
// bound on total iterations) stays within budget.
func replayBounded(m *Merged) bool {
	if len(m.Entries) > replayBudget {
		return false
	}
	var total int64
	for _, es := range m.Entries {
		for i := range es {
			for _, r := range es[i].Data.Counts.Runs() {
				if r.Count <= 0 {
					continue
				}
				if r.Count > replayBudget || r.Stride > replayBudget || -r.Stride > replayBudget ||
					r.First > replayBudget || -r.First > replayBudget {
					return false
				}
				hi := r.First
				if l := r.Last(); l > hi {
					hi = l
				}
				if hi > 0 {
					total += hi * r.Count
				}
				if total > replayBudget {
					return false
				}
			}
		}
	}
	return true
}

// replayAllBudget caps the rank count up to which FuzzReplayDecoded also
// replays every rank through ReplayAll (the path that builds the rank table).
const replayAllBudget = 64

// FuzzReplayDecoded replays decoded (possibly adversarial) merged trees
// through both decompression paths and checks:
//
//  1. Robustness: neither the rankView walk nor the Streamer panics on any
//     tree the decoder accepts — malformed structure must surface as an
//     error. (This path found the decoded-PeerPattern crash: At() indexed
//     the nil raw buffer because decode never set the compressed flag.)
//  2. Identity: whenever the reference rankView walk replays a rank, the
//     Streamer replays the identical event sequence, and both fail together
//     otherwise — the skeleton-sharing fast path may not diverge from the
//     per-rank walk even on hostile inputs. This holds for a rank resolved on
//     its own (Replay on a fresh Streamer: the Contains scan, raw selection
//     vectors) and for all ranks resolved through the rank table and the
//     canonical rows — ReplayAll on another fresh Streamer, and on the first,
//     where canonical vectors meet the raw ones already memoized.
func FuzzReplayDecoded(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	for _, s := range hostileRankSetSeeds(f) {
		f.Add(s)
	}
	for _, s := range shapeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		if m.NumRanks <= 0 || !replayBounded(m) {
			return
		}
		nr := m.NumRanks
		if nr > replayAllBudget {
			nr = 8
		}
		want := make([][]trace.Event, nr)
		firstBad := nr // first rank the reference cannot replay
		s := NewStreamer(m)
		for rank := 0; rank < nr; rank++ {
			wantErr := replay.Events(m.ForRank(rank), rank, func(e *trace.Event) {
				want[rank] = append(want[rank], *e)
			})
			var got []trace.Event
			gotErr := s.Replay(rank, func(e *trace.Event) {
				got = append(got, *e)
			})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("rank %d: rankView err=%v, streamer err=%v", rank, wantErr, gotErr)
			}
			if wantErr != nil {
				if firstBad == nr {
					firstBad = rank
				}
				continue
			}
			if !reflect.DeepEqual(want[rank], got) {
				t.Fatalf("rank %d: streamer sequence differs from rankView (%d vs %d events)",
					rank, len(got), len(want[rank]))
			}
		}
		if m.NumRanks > replayAllBudget {
			return
		}
		// One worker visits ranks in order and stops at the first error, so
		// everything before the reference's first failure must have arrived.
		for _, s := range []*Streamer{NewStreamer(m), s} {
			got := make([][]trace.Event, nr)
			err = s.ReplayAll(1, func(rank int, e *trace.Event) {
				got[rank] = append(got[rank], *e)
			})
			if (err != nil) != (firstBad < nr) {
				t.Fatalf("ReplayAll err=%v, but the reference first fails at rank %d of %d", err, firstBad, nr)
			}
			for rank := 0; rank < firstBad; rank++ {
				if !reflect.DeepEqual(want[rank], got[rank]) {
					t.Fatalf("rank %d: ReplayAll sequence differs from rankView (%d vs %d events)",
						rank, len(got[rank]), len(want[rank]))
				}
			}
		}
	})
}
