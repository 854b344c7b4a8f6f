package merge

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fp"
	"repro/internal/obs"
	"repro/internal/timestat"
)

// deltaEncBytes is the standalone v1 encoding of m.
func deltaEncBytes(t testing.TB, m *Merged) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSplitJoinIdentity pins the transcoder's core contract on real traces:
// Join(Split(x)) == x byte-for-byte, with a non-empty payload stream (the
// volatile suffixes exist) and a structure stream that still contains the
// header magic.
func TestSplitJoinIdentity(t *testing.T) {
	for _, tc := range []struct {
		src string
		n   int
	}{
		{jacobiSrc, 7},
		{jacobiSrc, 64},
		{`func main() { barrier(); }`, 2},
	} {
		_, ctts, _ := collect(t, tc.src, tc.n)
		m, err := All(ctts, 0)
		if err != nil {
			t.Fatal(err)
		}
		enc := deltaEncBytes(t, m)
		sp, err := SplitEncoded(enc)
		if err != nil {
			t.Fatalf("n=%d: split: %v", tc.n, err)
		}
		if len(sp.Payload) == 0 {
			t.Fatalf("n=%d: empty payload stream", tc.n)
		}
		if len(sp.Structure)+len(sp.Payload) != len(enc) {
			t.Fatalf("n=%d: split loses bytes: %d+%d != %d",
				tc.n, len(sp.Structure), len(sp.Payload), len(enc))
		}
		if !bytes.HasPrefix(sp.Structure, fileMagic[:]) {
			t.Fatalf("n=%d: structure stream lost the header", tc.n)
		}
		got, err := JoinEncoded(sp.Structure, sp.Payload)
		if err != nil {
			t.Fatalf("n=%d: join: %v", tc.n, err)
		}
		if !bytes.Equal(got, enc) {
			t.Fatalf("n=%d: join(split(x)) != x", tc.n)
		}
	}
}

// TestSplitClassKeyStability: the class key is a pure function of structure —
// identical across re-encodes of the same trace, changed by a different rank
// count, and unchanged under payload-only differences.
func TestSplitClassKeyStability(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 7)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := deltaEncBytes(t, m)
	sp1, err := SplitEncoded(enc)
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := SplitEncoded(deltaEncBytes(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if sp1.ClassKey() != sp2.ClassKey() {
		t.Fatal("class key differs across identical re-encodes")
	}
	if len(sp1.Plan.secs) == 0 || len(sp1.Plan.cuts) == 0 {
		t.Fatal("the split left no plan")
	}

	_, ctts13, _ := collect(t, jacobiSrc, 13)
	m13, err := All(ctts13, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp13, err := SplitEncoded(deltaEncBytes(t, m13))
	if err != nil {
		t.Fatal(err)
	}
	if sp13.ClassKey() == sp1.ClassKey() {
		t.Fatal("class key ignores rank count")
	}
}

// TestDeltaPayloadRoundTrip: Patch(Delta(p, ref), ref) == p, including the
// degenerate self-delta (all-zero words), an empty ref, and mismatched word
// counts in both directions.
func TestDeltaPayloadRoundTrip(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 7)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SplitEncoded(deltaEncBytes(t, m))
	if err != nil {
		t.Fatal(err)
	}
	p := sp.Payload

	_, ctts2, _ := collect(t, `func main() { barrier(); }`, 2)
	m2, err := All(ctts2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := SplitEncoded(deltaEncBytes(t, m2))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		ref  []byte
	}{
		{"self", p},
		{"empty-ref", nil},
		{"foreign-ref", sp2.Payload},
	} {
		d, err := DeltaPayload(p, mustRef(t, tc.ref))
		if err != nil {
			t.Fatalf("%s: delta: %v", tc.name, err)
		}
		got, err := PatchPayload(d, tc.ref)
		if err != nil {
			t.Fatalf("%s: patch: %v", tc.name, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("%s: patch(delta(p)) != p", tc.name)
		}
	}

	// The self-delta must be tiny: one byte per word plus the count header.
	d, err := DeltaPayload(p, mustRef(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) >= len(p)/2 {
		t.Fatalf("self-delta %dB not small vs payload %dB", len(d), len(p))
	}
}

// TestSplitRejectsCorrupt: truncations and bit flips must error, never panic,
// and never produce a SplitTrace that fails to rejoin. (Fuzzing hammers this
// further in the corpus package.)
func TestSplitRejectsCorrupt(t *testing.T) {
	_, ctts, _ := collect(t, jacobiSrc, 7)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := deltaEncBytes(t, m)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := SplitEncoded(enc[:cut]); err == nil {
			// A clean split of a truncation is only acceptable if it rejoins
			// to exactly the truncated input (i.e. the cut fell on a record
			// boundary of a well-formed prefix — impossible here because the
			// vertex count would disagree, but keep the check honest).
			sp, _ := SplitEncoded(enc[:cut])
			got, jerr := JoinEncoded(sp.Structure, sp.Payload)
			if jerr != nil || !bytes.Equal(got, enc[:cut]) {
				t.Fatalf("cut=%d: split accepted a non-rejoinable truncation", cut)
			}
		}
	}
	for pos := 0; pos < len(enc); pos += 11 {
		mut := append([]byte(nil), enc...)
		mut[pos] ^= 0x40
		sp, err := SplitEncoded(mut)
		if err != nil {
			continue
		}
		got, jerr := JoinEncoded(sp.Structure, sp.Payload)
		if jerr != nil || !bytes.Equal(got, mut) {
			t.Fatalf("pos=%d: split accepted a non-rejoinable mutation", pos)
		}
	}
}

// sectionLens is the index-less skip-walk of a standalone encoding: the VData
// section lengths the projected decoder finds when nothing tells it where
// sections end.
func sectionLens(enc []byte) ([]uint64, error) {
	c := &bcur{b: enc}
	h := c.header(false)
	var lens []uint64
	for c.err == nil && c.off < len(enc) {
		n := c.u()
		for k := uint64(0); k < n && c.err == nil; k++ {
			c.skipRuns()
			start := c.off
			walkVData(c, func() { skipVolatile(c, h.hist) })
			lens = append(lens, uint64(c.off-start))
		}
	}
	return lens, c.err
}

// mustRef is NewRef of a representative the test knows to be well formed.
func mustRef(t testing.TB, payload []byte) *Ref {
	t.Helper()
	ref, err := NewRef(payload)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// checkRef holds NewRef's verdict on ref to a whole-vector decode's, and its
// Ref to the words that decode finds, each minimally encoded.
func checkRef(t testing.TB, r *Ref, err error, ref []byte) {
	t.Helper()
	words, werr := uvarintWords(ref)
	if (err == nil) != (werr == nil) {
		t.Fatalf("verdicts differ: NewRef %v, uvarintWords %v", err, werr)
	}
	if err != nil {
		return
	}
	if len(r.offs) != len(words)+1 {
		t.Fatalf("the Ref holds %d words, want %d", len(r.offs)-1, len(words))
	}
	var enc []byte
	for i, w := range words {
		if got := r.word(i); got != w {
			t.Fatalf("word %d reads %d, want %d", i, got, w)
		}
		enc = binary.AppendUvarint(enc, w)
		if int(r.offs[i+1]) != len(enc) {
			t.Fatalf("word %d ends at %d, want %d", i, r.offs[i+1], len(enc))
		}
	}
	if !bytes.Equal(r.enc, enc) {
		t.Fatal("the Ref's bytes are not its words' minimal encoding")
	}
}

// reassembleBoth runs NewRef + Plan.Reassemble and the two-pass reference
// over the same three streams and holds them to one verdict: both fail, or
// both produce the same bytes, and the section lengths the fused pass reports
// are the ones a skip-walk of those bytes finds. It returns the bytes, nil
// when both failed.
func reassembleBoth(t testing.TB, structure, ref, delta []byte) []byte {
	t.Helper()
	r, rerr := NewRef(ref)
	checkRef(t, r, rerr, ref)
	var got Joined
	plan, gerr := PlanStructure(structure)
	if gerr == nil {
		gerr = rerr
	}
	if gerr == nil {
		got, gerr = plan.Reassemble(r, delta, len(structure)+len(ref), SelectAll())
	}
	var want []byte
	payload, werr := PatchPayload(delta, ref)
	if werr == nil {
		want, werr = JoinEncoded(structure, payload)
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("verdicts differ: NewRef+Reassemble %v, PatchPayload+JoinEncoded %v", gerr, werr)
	}
	if gerr != nil {
		return nil
	}
	if !bytes.Equal(got.Enc, want) {
		t.Fatalf("Reassemble wrote %d bytes that differ from the reference's %d", len(got.Enc), len(want))
	}
	lens, err := sectionLens(want)
	if err != nil {
		t.Fatalf("skip-walk of the reassembled bytes: %v", err)
	}
	if !slices.Equal(got.lens, lens) {
		t.Fatalf("Reassemble reports section lengths %v, a skip-walk finds %v", got.lens, lens)
	}
	if got.Hash != uint64(fp.New().Bytes(want)) {
		t.Fatal("Reassemble's hash is not the fold of the bytes it wrote")
	}
	return want
}

// checkProjections holds projected reassemblies of the triple, whose whole
// reassembly is whole, to the whole one and to the selective decoder: each
// hashes the whole encoding, and whenever DecodeSelectAuto accepts the whole
// encoding, decoding the projected one gives the same tree.
func checkProjections(t testing.TB, structure, ref, delta, whole []byte) {
	t.Helper()
	plan, err := PlanStructure(structure)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	c := &bcur{b: structure}
	n := c.header(false).numRanks
	for _, sel := range []Selection{
		SelectRanks(), SelectRanks(1), SelectRanks(0, 5),
		SelectRanks(n - 1), // the last rank
		SelectRanks(n),     // a rank no group holds
		SelectRanks(0, n-1),
	} {
		checkProjection(t, plan, r, delta, whole, sel)
	}
}

func checkProjection(t testing.TB, plan *Plan, r *Ref, delta, whole []byte, sel Selection) {
	t.Helper()
	j, err := plan.Reassemble(r, delta, 0, sel)
	if err != nil {
		if _, derr := Decode(bytes.NewReader(whole)); derr == nil {
			t.Fatalf("%v: projected Reassemble fails (%v) on an encoding that decodes", sel, err)
		}
		return
	}
	if j.Hash != uint64(fp.New().Bytes(whole)) {
		t.Fatalf("%v: projected Reassemble hashes other bytes than the whole encoding", sel)
	}
	// The projection's verdict is the selective decoder's: a rank set it
	// refuses (a malformed run count or stride, runs out of order) fails the
	// projection wherever that set lies, not only when its group is kept.
	want, werr := DecodeSelectAuto(whole, sel, 0)
	got, err := j.Decode(sel)
	if werr != nil {
		if err == nil {
			t.Fatalf("%v: the selective decoder refuses the whole encoding (%v), but its projection reassembles and decodes", sel, werr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v: the projected encoding does not decode: %v", sel, err)
	}
	if !reflect.DeepEqual(got.Entries, want.Entries) || !reflect.DeepEqual(got.proj, want.proj) {
		t.Fatalf("%v: the projected encoding decodes to another tree than the selective decoder's", sel)
	}
}

// perturb returns payload (a uvarint vector) with every third word changed:
// low bits, high bits, or both, the three shapes the delta tokens take.
func perturb(t testing.TB, payload []byte) []byte {
	t.Helper()
	words, err := uvarintWords(payload)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for i, w := range words {
		switch i % 9 {
		case 0:
			w ^= 5
		case 3:
			w ^= 1 << 52
		case 6:
			w = ^w
		}
		out = binary.AppendUvarint(out, w)
	}
	return out
}

// alternate returns payload (a uvarint vector) with every other word's low
// bit flipped, so that a delta against it alternates zero and non-zero tokens
// inside every record.
func alternate(t testing.TB, payload []byte) []byte {
	t.Helper()
	words, err := uvarintWords(payload)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for i, w := range words {
		out = binary.AppendUvarint(out, w^uint64(i&1))
	}
	return out
}

// deltaTokens walks a well-formed delta and counts its words and how many of
// their tokens are not zero.
func deltaTokens(t testing.TB, delta []byte) (words, nonZero int64) {
	t.Helper()
	c := &bcur{b: delta}
	for n := c.u(); uint64(words) < n && c.err == nil; words++ {
		if c.u() != 0 {
			c.u()
			nonZero++
		}
	}
	if c.err != nil || c.off != len(delta) {
		t.Fatalf("malformed delta: %v", c.err)
	}
	return words, nonZero
}

// reassembleSeed is a (structure, ref, delta) triple from a traced run.
type reassembleSeed struct {
	name                  string
	structure, ref, delta []byte
}

// reassembleSeeds are the triples of a self-delta (every token zero), a delta
// against a perturbed representative, against one whose every other word
// differs (tokens alternate inside each record), against an empty and a
// foreign one, in mean/stddev and in histogram mode.
func reassembleSeeds(t testing.TB) []reassembleSeed {
	t.Helper()
	var seeds []reassembleSeed
	_, foreign, _ := collect(t, `func main() { barrier(); }`, 2)
	mf, err := All(foreign, 0)
	if err != nil {
		t.Fatal(err)
	}
	spf, err := SplitEncoded(deltaEncBytes(t, mf))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []timestat.Mode{timestat.ModeMeanStddev, timestat.ModeHistogram} {
		_, ctts, _ := collectMode(t, jacobiSrc, 7, mode)
		m, err := All(ctts, 0)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := SplitEncoded(deltaEncBytes(t, m))
		if err != nil {
			t.Fatal(err)
		}
		if sp.Hist != (mode == timestat.ModeHistogram) {
			t.Fatalf("mode %v encoded with histogram flag %v", mode, sp.Hist)
		}
		prefix := "mean/"
		if sp.Hist {
			prefix = "hist/"
		}
		add := func(name string, ref []byte) {
			d, err := DeltaPayload(sp.Payload, mustRef(t, ref))
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, reassembleSeed{prefix + name, sp.Structure, ref, d})
		}
		add("self", sp.Payload)
		add("empty-ref", nil)
		add("foreign", spf.Payload)
		add("alternating", alternate(t, sp.Payload))
		if mode == timestat.ModeMeanStddev {
			// In histogram mode a word is also a bucket count, and a perturbed
			// one is another grammar, not another run.
			add("perturbed", perturb(t, sp.Payload))
		}
	}
	return seeds
}

// TestReassembleMatchesReference: on every seed the fused pass succeeds, is
// byte-identical to the two-pass reference and to the encoding that was split,
// patches exactly the words whose token is not zero, and the plan a
// structure-only walk builds is the plan the split left.
func TestReassembleMatchesReference(t *testing.T) {
	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)
	for _, seed := range reassembleSeeds(t) {
		before := s.Value(obs.CorpusPatchedWords)
		enc := reassembleBoth(t, seed.structure, seed.ref, seed.delta)
		if enc == nil {
			t.Fatalf("%s: reassembly failed", seed.name)
		}
		words, nonZero := deltaTokens(t, seed.delta)
		if got := s.Value(obs.CorpusPatchedWords) - before; got != nonZero {
			t.Errorf("%s: reassembly patched %d words, the delta has %d non-zero tokens", seed.name, got, nonZero)
		}
		checkProjections(t, seed.structure, seed.ref, seed.delta, enc)
		switch seed.name {
		case "mean/self", "hist/self":
			if nonZero != 0 {
				t.Errorf("%s: %d non-zero tokens in a self-delta", seed.name, nonZero)
			}
		case "mean/alternating", "hist/alternating":
			if nonZero != words/2 {
				t.Errorf("%s: %d of %d tokens non-zero, want every other one", seed.name, nonZero, words)
			}
		}
		sp, err := SplitEncoded(enc)
		if err != nil {
			t.Fatalf("%s: %v", seed.name, err)
		}
		if !bytes.Equal(sp.Structure, seed.structure) {
			t.Fatalf("%s: reassembled bytes split to another structure", seed.name)
		}
		plan, err := PlanStructure(sp.Structure)
		if err != nil {
			t.Fatalf("%s: %v", seed.name, err)
		}
		if !reflect.DeepEqual(plan, sp.Plan) {
			t.Fatalf("%s: PlanStructure and SplitEncoded disagree on the plan", seed.name)
		}
	}
}

// TestReassembleRejects: what the fused pass must refuse, each refused by the
// reference too — a delta with a word too few or too many, trailing delta
// bytes, a shift out of range, a representative that is not a uvarint vector
// (even past the words the run uses), a structure stream cut short.
func TestReassembleRejects(t *testing.T) {
	seed := reassembleSeeds(t)[0]
	structure, ref, delta := seed.structure, seed.ref, seed.delta
	words, n := binary.Uvarint(delta)
	recount := func(w uint64) []byte { return append(binary.AppendUvarint(nil, w), delta[n:]...) }
	for _, tc := range []struct {
		name                  string
		structure, ref, delta []byte
	}{
		{"word short", structure, ref, recount(words - 1)},
		{"word over", structure, ref, append(recount(words+1), 0)},
		{"trailing delta byte", structure, ref, append(bytes.Clone(delta), 0)},
		{"shift out of range", structure, ref, append(binary.AppendUvarint(nil, words), append([]byte{65, 1}, delta[n+1:]...)...)},
		{"shift overflow", structure, ref, append(binary.AppendUvarint(nil, words), append([]byte{64, 2}, delta[n+1:]...)...)},
		{"malformed ref", structure, []byte{0x80}, delta},
		{"malformed ref tail", structure, append(bytes.Clone(ref), 0x80), delta},
		{"short structure", structure[:len(structure)-1], ref, delta},
		{"empty delta", structure, ref, nil},
	} {
		if enc := reassembleBoth(t, tc.structure, tc.ref, tc.delta); enc != nil {
			t.Errorf("%s: reassembled %d bytes", tc.name, len(enc))
		}
	}
	// Not an error: a representative whose varints are not minimal reads as
	// the same words, and the output is minimal either way.
	if ref[0] >= 0x80 {
		t.Fatal("the representative's first word (a sample count) is not one byte")
	}
	if enc := reassembleBoth(t, structure, append([]byte{ref[0] | 0x80, 0}, ref[1:]...), delta); enc == nil {
		t.Error("a non-minimal representative varint was refused")
	}
	refWords, err := uvarintWords(ref)
	if err != nil {
		t.Fatal(err)
	}
	var padded []byte // every word that can be one byte longer than it needs
	for _, w := range refWords {
		e := binary.AppendUvarint(nil, w)
		if len(e) < binary.MaxVarintLen64 {
			e[len(e)-1] |= 0x80
			e = append(e, 0)
		}
		padded = append(padded, e...)
	}
	if enc := reassembleBoth(t, structure, padded, delta); enc == nil {
		t.Error("a representative of non-minimal varints was refused")
	}
}

// FuzzReassemble holds Plan.Reassemble to the two-pass reference on arbitrary
// (structure, ref, delta) triples: one verdict, identical bytes, section
// lengths equal to those of an index-less skip-walk of the result, and the
// hash of those bytes; a projected reassembly of the triple hashes the same
// bytes and decodes as the selective decoder does (checkProjections).
func FuzzReassemble(f *testing.F) {
	seeds := reassembleSeeds(f)
	for _, s := range seeds {
		f.Add(s.structure, s.ref, s.delta)
	}
	s := seeds[0]
	plan, err := PlanStructure(s.structure)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(disorderRankSet(f, plan, 0), s.ref, s.delta)
	f.Fuzz(func(t *testing.T, structure, ref, delta []byte) {
		if whole := reassembleBoth(t, structure, ref, delta); whole != nil {
			checkProjections(t, structure, ref, delta, whole)
		}
	})
}

// shardSrc is a workload whose records do not fold across ranks (every rank
// sends its own message size, the SP case), so the entry count grows with the
// rank count and most groups hold one rank.
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

// shardFixture is the shard workload on 1024 ranks: its merged tree, the split
// of its encoding, a Ref of its payload and its self-delta against that Ref.
func shardFixture(t testing.TB) (*Merged, *SplitTrace, *Ref, []byte) {
	t.Helper()
	_, ctts, _ := collect(t, shardSrc, 1024)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SplitEncoded(deltaEncBytes(t, m))
	if err != nil {
		t.Fatal(err)
	}
	ref := mustRef(t, sp.Payload)
	delta, err := DeltaPayload(sp.Payload, ref)
	if err != nil {
		t.Fatal(err)
	}
	return m, sp, ref, delta
}

// disorderRankSet returns the plan's structure stream with the rank set of one
// group rewritten out of order: the first group whose least rank is at least
// from gets two one-rank runs, the greater first. The stream still walks, so
// it still has a plan.
func disorderRankSet(t testing.TB, plan *Plan, from int64) []byte {
	t.Helper()
	st := plan.structure
	for k, sec := range plan.secs {
		// The set runs from the previous section's end, or from behind the
		// entry count of a vertex that starts after it.
		start := int(sec.start)
		i, _ := slices.BinarySearch(plan.verts, start)
		v := plan.verts[i-1]
		_, n := binary.Uvarint(st[v:])
		at := v + n
		if k > 0 && int(plan.secs[k-1].end) > v {
			at = int(plan.secs[k-1].end)
		}
		d := decoder{bcur: bcur{b: st, off: at}}
		runs := d.setRuns()
		if d.err != nil || d.off != start {
			t.Fatalf("rank set of group %d does not parse to its section: %v", k, d.err)
		}
		if len(runs) == 0 || runs[0].First < from {
			continue
		}
		r := runs[0].First
		set := binary.AppendUvarint(nil, 2)
		for _, first := range []int64{r + 1, r} {
			set = binary.AppendVarint(set, first)
			set = binary.AppendVarint(set, 1)
			set = binary.AppendUvarint(set, 1)
		}
		return slices.Concat(st[:at], set, st[start:])
	}
	t.Fatalf("no group holds only ranks from %d", from)
	return nil
}

// TestProjectionParsesInRangeSets: a projected Reassemble parses the rank set
// of a group only when a selected rank lies between the set's least and
// greatest rank. On the shard workload, rank 1 lies in few groups' ranges, and
// those are the only sets the pass parses; a whole reassembly parses none.
func TestProjectionParsesInRangeSets(t *testing.T) {
	m, sp, ref, delta := shardFixture(t)
	total, inRange := 0, 0
	for _, es := range m.Entries {
		for _, e := range es {
			runs := e.Ranks.Runs()
			total++
			if runs[0].First <= 1 && 1 <= runs[len(runs)-1].Last() {
				inRange++
			}
		}
	}
	if total != len(sp.Plan.secs) || inRange*10 > total {
		t.Fatalf("%d groups, %d sections, %d ranges hold rank 1: the fixture no longer spreads its ranks",
			total, len(sp.Plan.secs), inRange)
	}
	j, err := sp.Plan.Reassemble(ref, delta, 0, SelectRanks(1))
	if err != nil {
		t.Fatal(err)
	}
	if j.parsed != int64(inRange) {
		t.Errorf("projected Reassemble parsed %d rank sets of %d; %d ranges hold rank 1", j.parsed, total, inRange)
	}
	all, err := sp.Plan.Reassemble(ref, delta, 0, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if all.parsed != 0 {
		t.Errorf("whole Reassemble parsed %d rank sets", all.parsed)
	}
	if j.Hash != all.Hash {
		t.Error("projected and whole Reassemble hash differently")
	}
	t.Logf("rank 1: %d of %d rank sets parsed", j.parsed, total)
}

// TestProjectionRefusesDisorderedSet: a rank set out of order fails a
// projected Reassemble even in a group whose ranks lie far from the
// selection, as the decoder would refuse it: the plan cannot vouch for the
// range of a set the decoder refuses, so that set is always parsed.
func TestProjectionRefusesDisorderedSet(t *testing.T) {
	_, sp, ref, delta := shardFixture(t)
	plan, err := PlanStructure(disorderRankSet(t, sp.Plan, 512))
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []Selection{SelectRanks(1), SelectRanks()} {
		if _, err := plan.Reassemble(ref, delta, 0, sel); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("%v: projected Reassemble of a disordered rank set: %v", sel, err)
		}
	}
	if _, err := plan.Reassemble(ref, delta, 0, SelectAll()); err != nil {
		t.Errorf("whole Reassemble, which parses no rank set: %v", err)
	}
}

// The two-pass reference Plan.Reassemble is held against: decode the whole
// representative into words and patch the payload stream (PatchPayload), then
// walk the structure stream's grammar and interleave (JoinEncoded). It was the
// production read path until the plan made the structure walk a once-per-class
// affair; it stays here, unchanged, as the oracle of TestReassembleMatchesReference
// and FuzzReassemble.

// JoinEncoded reassembles the standalone encoding from a structure stream and
// a payload stream produced by SplitEncoded. Both streams must be consumed
// exactly; leftover bytes on either side or a grammar violation is an error.
// The result is
// byte-identical to the original input of SplitEncoded by construction.
func JoinEncoded(structure, payload []byte) ([]byte, error) {
	out := make([]byte, 0, len(structure)+len(payload))
	st := &bcur{b: structure}
	hdr := st.header(false)
	if st.err != nil {
		return nil, st.err
	}
	pl := &bcur{b: payload}
	mark := 0
	take := func() {
		out = append(out, structure[mark:st.off]...)
		mark = st.off
		vs := pl.off
		skipVolatile(pl, hdr.hist)
		out = append(out, payload[vs:pl.off]...)
		st.err = pl.err // a short payload stream ends the walk
	}
	for st.err == nil && st.off < len(structure) {
		n := st.u()
		if st.err == nil && n > maxEntries {
			st.fail("merge: implausible entry count %d", n)
		}
		for k := uint64(0); k < n && st.err == nil; k++ {
			st.skipRuns() // rank set
			walkVData(st, take)
		}
	}
	if pl.err != nil {
		return nil, fmt.Errorf("merge: join payload: %w", pl.err)
	}
	if st.err != nil {
		return nil, fmt.Errorf("merge: join structure: %w", st.err)
	}
	out = append(out, structure[mark:]...)
	if pl.off != len(payload) {
		return nil, fmt.Errorf("merge: join: %d unconsumed payload bytes", len(payload)-pl.off)
	}
	return out, nil
}

// PatchPayload reconstructs a payload stream from its delta and the same
// representative stream DeltaPayload ran against.
func PatchPayload(delta, ref []byte) ([]byte, error) {
	rw, err := uvarintWords(ref)
	if err != nil {
		return nil, fmt.Errorf("merge: patch ref: %w", err)
	}
	c := &bcur{b: delta}
	n := c.u()
	if c.err != nil {
		return nil, c.err
	}
	// Every encoded word consumes at least one delta byte.
	if n > uint64(len(delta)) {
		return nil, fmt.Errorf("merge: patch: implausible word count %d", n)
	}
	out := make([]byte, 0, len(ref)+len(delta))
	for i := uint64(0); i < n; i++ {
		t := c.u()
		var x uint64
		if t != 0 {
			if t > 64 {
				c.fail("merge: patch: shift %d out of range", t)
			}
			m := c.u()
			if c.err != nil {
				return nil, c.err
			}
			sh := uint(t - 1)
			if sh > 0 && m>>(64-sh) != 0 {
				return nil, fmt.Errorf("merge: patch: word %d overflows shift %d", i, sh)
			}
			x = m << sh
		}
		if c.err != nil {
			return nil, c.err
		}
		var r uint64
		if i < uint64(len(rw)) {
			r = rw[i]
		}
		out = binary.AppendUvarint(out, x^r)
	}
	if c.off != len(delta) {
		return nil, fmt.Errorf("merge: patch: %d trailing delta bytes", len(delta)-c.off)
	}
	return out, nil
}

// uvarintWords decodes a whole buffer as a uvarint vector.
func uvarintWords(b []byte) ([]uint64, error) {
	cap0 := len(b)
	if cap0 > 4096 {
		cap0 = 4096
	}
	out := make([]uint64, 0, cap0)
	for off := 0; off < len(b); {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return nil, fmt.Errorf("malformed uvarint at offset %d", off)
		}
		out = append(out, v)
		off += n
	}
	return out, nil
}
