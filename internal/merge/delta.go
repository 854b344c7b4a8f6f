package merge

// Byte-level split/join transcoding of the v1 CYPR encoding, the substrate of
// the content-addressed corpus (internal/corpus). CYPRESS's premise is that
// the static communication structure is shared across every run of a program
// and only the dynamic payload varies; on the wire that premise is literal:
// the per-record volatile suffix (time statistics — sample count, moments,
// min/max, compute mean, histogram buckets) is the only part of the stream
// that changes between runs of the same workload, everything else (header,
// embedded CST, rank sets, control vectors, record parameters) is a function
// of the program and the rank count.
//
// SplitEncoded walks the v1 grammar over the raw bytes and partitions them
// into a structure stream and a payload stream without re-encoding anything,
// and the same walk leaves the structure's Plan: where every volatile suffix
// was cut out and where every VData section lies. The structure of a class
// does not change between runs, so that walk is the only one it ever gets —
// Plan.Reassemble interleaves a payload back along the plan's tables without
// parsing a structure byte. Reassembling a split reproduces the input exactly
// because both sides copy byte ranges of the original structure — no
// structural value round-trips through a decode/encode cycle, so the decoder's
// normalizations (it drops the second timing moment) cannot leak into
// reconstruction. The payload travels as DeltaPayload against the class
// representative's, one run's words XORed onto another's; Reassemble undoes
// that in the same pass.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/fp"
	"repro/internal/obs"
	"repro/internal/stride"
	"repro/internal/timestat"
)

// SplitTrace is a v1 encoding partitioned into its structural skeleton and
// its volatile payload. Structure holds every byte that is a function of the
// program and rank count (header, CST, rank sets, control vectors, record
// parameters) in stream order; Payload holds the per-record time-statistic
// suffixes, also in stream order. Interleaving the two streams back in grammar
// order (Plan.Reassemble) reproduces the original bytes exactly.
type SplitTrace struct {
	// TreeHash and NumRanks are lifted from the header for indexing.
	TreeHash uint64
	NumRanks int
	// Hist records the header's histogram-mode flag, which decides whether
	// payload records carry bucket lists.
	Hist bool

	Structure []byte
	Payload   []byte

	// Plan is the read plan of Structure, a by-product of the walk that cut
	// the two streams apart.
	Plan *Plan
}

// ClassKey is the structural class key of the encoding (see Plan.ClassKey).
func (s *SplitTrace) ClassKey() uint64 { return s.Plan.key }

// Plan is what one walk of a structural class's structure stream learns, kept
// so that no read of the class has to walk it again: where every record's
// volatile suffix goes back in (the cut table), where every entry's VData
// section lies and which ranks its rank set spans (the section table), whether
// suffixes carry histogram buckets, and the class key. The offsets only mean
// something against the stream they were taken from, so the plan holds it.
// The walk reads every rank set once, for its range; a projected Reassemble
// parses a set again only when a selected rank lies in that range.
type Plan struct {
	structure []byte
	key       uint64
	hist      bool
	verts     []int         // structure offset of each vertex section (its entry count), GID order
	cuts      []uint32      // structure offset of each record's volatile suffix, stream order
	secs      []planSection // one per entry, stream order
}

// planSection is one entry's VData section in structure coordinates, how many
// records (cuts) it holds, and the least and greatest rank of its rank set
// (skipRuns). The rank set runs from where the section before it ends, or
// from behind its vertex's entry count, to start. The fields, like the cut
// table's offsets, are 32 bits wide because the plan keeps one section per
// group of the class (11 931 on SP-1024) and one cut per record for as long
// as the class is open; a structure stream of 4 GiB or more has no plan.
type planSection struct {
	start, end, ncuts uint32
	lo, hi            int32
}

// rankFloor and rankCeil are the widest range a plan section can hold. A
// section whose range starts at rankFloor is one the plan cannot vouch for,
// and a projection always parses its rank set.
const (
	rankFloor = math.MinInt32
	rankCeil  = math.MaxInt32
)

// mayHold reports whether the section's rank set can hold a rank sel selects:
// whether a selected rank lies in its range, or the plan cannot vouch for the
// range. Only then does a projection parse the set.
func (s *planSection) mayHold(sel Selection) bool {
	return s.lo == rankFloor || sel.anyIn(int(s.lo), int(s.hi))
}

// Structure returns the structure stream the plan was built from. The caller
// must not modify it.
func (p *Plan) Structure() []byte { return p.structure }

// ClassKey folds the whole-tree structural fingerprint: the header/CST prefix
// fingerprint plus every per-vertex structure section fingerprint in vertex
// order. Two encodings share a class key exactly when their structure streams
// are byte-identical (modulo a 2^-64 collision, which ingest guards against
// by comparing the streams).
func (p *Plan) ClassKey() uint64 { return p.key }

// PlanStructure builds the plan of a structure stream produced by
// SplitEncoded with one walk of it, validating the grammar on the way: a
// stream that does not walk to its last byte has no plan.
func PlanStructure(structure []byte) (*Plan, error) {
	c := &bcur{b: structure}
	h := c.header(false)
	if c.err != nil {
		return nil, c.err
	}
	p := &Plan{hist: h.hist}
	verts := p.walk(c, -1, nil)
	if c.err != nil {
		return nil, fmt.Errorf("merge: structure stream: %w", c.err)
	}
	p.seal(structure, verts)
	return p, nil
}

// walk is the one loop that builds the cut and section tables. It walks the
// vertex sections under c, which stands behind the header: nverts of them, or
// as many as the input holds when nverts is negative. A structure stream is
// walked as it is (volatile nil); SplitEncoded's input still interleaves the
// volatile suffixes, so its volatile consumes one at every cut and the bytes
// it consumes are subtracted from every offset recorded afterwards. walk
// returns the structure offset each vertex section starts at; failures latch
// in c.err.
func (p *Plan) walk(c *bcur, nverts int, volatile func()) (verts []int) {
	removed := 0 // volatile bytes consumed so far
	cut := func() {
		p.cuts = append(p.cuts, uint32(c.off-removed)) // walk fails a stream past 4 GiB
		if volatile != nil {
			at := c.off
			volatile()
			removed += c.off - at
		}
	}
	for gid := 0; c.err == nil && (gid < nverts || nverts < 0 && c.off < len(c.b)); gid++ {
		verts = append(verts, c.off-removed)
		n := c.u()
		if c.err == nil && n > maxEntries {
			c.fail("merge: implausible entry count %d at offset %d", n, c.off)
		}
		for k := uint64(0); k < n && c.err == nil; k++ {
			lo, hi := c.skipRuns() // rank set
			start, ncuts := c.off-removed, len(p.cuts)
			walkVData(c, cut)
			if end := c.off - removed; end > math.MaxUint32 {
				c.fail("merge: structure stream longer than 4 GiB at offset %d", c.off)
			} else {
				p.secs = append(p.secs, planSection{start: uint32(start), end: uint32(end),
					ncuts: uint32(len(p.cuts) - ncuts), lo: lo, hi: hi})
			}
		}
	}
	return verts
}

// seal attaches the finished structure stream and its vertex table and folds
// the class key over it: the header/CST prefix ends where the first vertex
// section starts and each vertex section runs to the start of the next.
func (p *Plan) seal(structure []byte, verts []int) {
	p.structure, p.verts = structure, verts
	h := fp.New().Word(uint64(fp.New().Bytes(structure[:p.vert(0)])))
	for g := range verts {
		h = h.Word(uint64(fp.New().Bytes(structure[p.vert(g):p.vert(g+1)])))
	}
	p.key = uint64(h)
}

// vert is where vertex section g starts; the end of the stream past the last.
func (p *Plan) vert(g int) int {
	if g < len(p.verts) {
		return p.verts[g]
	}
	return len(p.structure)
}

// skipRuns walks one run-length list (rank sets, loop/taken vectors) and
// returns the least and greatest value of the list read as a rank set, lo >
// hi for an empty list. The count cap mirrors the decoder's plausibility
// bound; the walk itself is allocation-free, and each element consumes at
// least three bytes, so a hostile count degrades into a fast cursor error.
// The range holds each run to the checks decoder.setRuns makes; a list that
// fails one, or has a value outside (rankFloor, rankCeil), returns the widest
// range, so that every projection still parses such a rank set and fails or
// matches exactly as the decoder does.
func (c *bcur) skipRuns() (lo, hi int32) {
	n := c.u()
	if n > 1<<20 {
		c.fail("merge: implausible run count %d at offset %d", n, c.off)
	}
	first, last := int64(rankCeil), int64(rankFloor)
	ok := true
	for j := uint64(0); j < n && c.err == nil; j++ {
		r := stride.Run{First: c.i(), Stride: c.i(), Count: int64(c.u())}
		switch {
		case !ok:
		case r.Count < 1, r.Count > 1 && r.Stride < 1, j > 0 && r.First <= last:
			ok = false // setRuns refuses the set
		case r.First <= rankFloor, r.Count > rankCeil, r.Count > 1 && r.Stride > rankCeil:
			ok = false
		default:
			if j == 0 {
				first = r.First
			}
			last = r.Last() // under 2^62: no overflow
			ok = last < rankCeil
		}
	}
	if !ok {
		return rankFloor, rankCeil
	}
	return int32(first), int32(last)
}

// skipVolatile walks one record's volatile suffix: sample count, four time
// moments, the compute mean, and (in histogram mode) the non-zero bucket
// list. Every field is a uvarint (floats travel as Float64bits), a property
// the payload delta codec relies on.
func skipVolatile(c *bcur, hist bool) {
	for k := 0; k < 6; k++ {
		c.u()
	}
	if !hist {
		return
	}
	nz := c.u()
	if nz > timestat.HistBuckets {
		c.fail("merge: implausible histogram bucket count %d at offset %d", nz, c.off)
	}
	for j := uint64(0); j < nz && c.err == nil; j++ {
		c.u()
		c.u()
	}
}

// skipRecordStructure walks one record's structural prefix (everything up to
// the volatile suffix) and returns the flags field.
func (c *bcur) skipRecordStructure() {
	c.u() // op
	flags := c.u()
	c.u() // size
	c.i() // peer
	c.i() // peerRel
	c.u() // tag
	c.u() // comm
	c.u() // count
	nq := c.u()
	if nq > 1<<20 {
		c.fail("merge: implausible req count %d at offset %d", nq, c.off)
	}
	for j := uint64(0); j < nq && c.err == nil; j++ {
		c.i()
	}
	if flags&4 != 0 {
		np := c.u()
		if np == 0 || np > 1<<20 {
			c.fail("merge: implausible peer period %d at offset %d", np, c.off)
		}
		for j := uint64(0); j < np && c.err == nil; j++ {
			c.i()
		}
	}
}

// walkVData is the one byte-level walk of an entry's VData section (loop
// counts, taken branches, cycles, then the records), mirroring decodeVData's
// grammar and plausibility caps without decoding or allocating. The cursor
// stops at each record's volatile suffix and volatile decides what happens
// there: the selective decoder skips it in place, SplitEncoded cuts it out to
// the payload stream, PlanStructure (whose stream has none) only notes the
// place. The walk ends at the first latched cursor error.
func walkVData(c *bcur, volatile func()) {
	c.skipRuns() // loop counts
	c.skipRuns() // taken branches
	nc := c.u()
	if nc > 1<<24 {
		c.fail("merge: implausible cycle count %d at offset %d", nc, c.off)
	}
	for j := uint64(0); j < nc && c.err == nil; j++ {
		c.u()
		c.u()
		c.u()
	}
	nr := c.u()
	if nr > 1<<26 {
		c.fail("merge: implausible record count %d at offset %d", nr, c.off)
	}
	for j := uint64(0); j < nr && c.err == nil; j++ {
		c.skipRecordStructure()
		if c.err == nil {
			volatile()
		}
	}
}

// SplitEncoded partitions a standalone v1 encoding into structure and payload
// streams (see SplitTrace) and builds the structure's read plan on the way.
// It validates the grammar syntactically — counts within the decoder's
// plausibility caps, varints well-formed, no trailing bytes — but not
// semantically; a stream that splits cleanly may still fail Decode, and
// reconstruction fidelity is byte-level either way.
func SplitEncoded(enc []byte) (*SplitTrace, error) {
	c := &bcur{b: enc}
	h := c.header(true)
	if c.err != nil {
		return nil, c.err
	}
	s := &SplitTrace{TreeHash: h.treeHash, NumRanks: h.numRanks, Hist: h.hist, Plan: &Plan{hist: h.hist}}
	mark := 0 // enc[mark:c.off] is structure not yet copied out
	verts := s.Plan.walk(c, h.tree.NumVertices(), func() {
		s.Structure = append(s.Structure, enc[mark:c.off]...)
		mark = c.off
		skipVolatile(c, h.hist)
		if c.err == nil {
			s.Payload = append(s.Payload, enc[mark:c.off]...)
			mark = c.off
		}
	})
	if c.err != nil {
		return nil, fmt.Errorf("merge: split: %w", c.err)
	}
	if c.off != len(enc) {
		return nil, fmt.Errorf("merge: split: %d trailing bytes", len(enc)-c.off)
	}
	s.Structure = append(s.Structure, enc[mark:]...)
	s.Plan.seal(s.Structure, verts)
	return s, nil
}

// Joined is a v1 encoding written by Plan.Reassemble, together with what the
// pass that wrote it knows about it. Decode uses that knowledge; it never
// leaves the package and is never read from anywhere, so a Joined built by
// hand ({Enc: bytes}) simply has none.
type Joined struct {
	// Enc is the standalone encoding, less every group outside the selection
	// it was written under.
	Enc []byte
	// Hash is the fp.Bytes fold (from fp.New) of the whole standalone
	// encoding, every group included: the content hash of the run.
	Hash uint64

	written bool      // by Reassemble; false for a Joined built by hand
	sel     Selection // the selection Enc was written under
	// lens is the byte length of every VData section in Enc, in stream order.
	lens []uint64
	// skipped and skippedB count the groups left out and their section bytes.
	skipped, skippedB int64
	// parsed counts the rank sets the pass parsed to test the selection.
	parsed int64
}

// Payload streams are pure uvarint vectors (skipVolatile's invariant), which
// makes the delta codec grammar-free: walk both vectors, XOR element-wise
// against the representative, and pack each difference word as
//
//	0                 — identical words (the common case between runs)
//	(ntz+1, x>>ntz)   — two uvarints: trailing-zero count plus significant bits
//
// The trailing-zero split matters because Float64bits of two nearby values
// can differ either in the low mantissa bits (small XOR, short uvarint on its
// own) or — for values with short mantissas, like integral nanosecond counts
// — in the high bits above a run of trailing zeros, where a bare uvarint of
// the XOR would spend its full ten bytes. Word alignment between run and
// representative is a compression heuristic, not a correctness requirement:
// a misaligned pair just XORs unrelated words and encodes longer. A
// representative with fewer words than the run reads as zero past its end.

// Ref is a class representative's payload stream, held minimally encoded
// together with where each of its words starts. A class builds its Ref once,
// when it enters memory, so that a read copies an unchanged word's bytes
// instead of decoding and re-encoding it.
type Ref struct {
	enc  []byte
	offs []uint32 // offs[i] is where word i starts in enc; offs[len(offs)-1] == len(enc)
}

// NewRef indexes a representative payload stream, which must be a
// well-formed uvarint vector from end to end. A word encoded non-minimally
// reads as the same value, and the Ref holds it re-encoded minimally. A
// minimal stream (as every SplitEncoded payload that passed ingest's verify
// is) is held in place, so the caller must not modify payload afterwards.
func NewRef(payload []byte) (*Ref, error) {
	if len(payload) > math.MaxUint32 {
		return nil, fmt.Errorf("merge: delta ref: %d bytes is too long", len(payload))
	}
	n := 0
	for _, b := range payload {
		n += int(^b >> 7) // a uvarint ends at its one byte below 0x80
	}
	r := &Ref{enc: payload, offs: make([]uint32, 1, n+1)}
	start, minimal := 0, true
	for i, b := range payload {
		if b >= 0x80 {
			continue
		}
		if size := i + 1 - start; size > binary.MaxVarintLen64 || size == binary.MaxVarintLen64 && b > 1 {
			return nil, fmt.Errorf("merge: delta ref: oversized uvarint at offset %d", start)
		}
		// A longer uvarint than needed ends in a zero byte.
		minimal = minimal && (i == start || b != 0)
		start = i + 1
		r.offs = append(r.offs, uint32(start))
	}
	if start != len(payload) {
		return nil, fmt.Errorf("merge: delta ref: truncated uvarint at offset %d", start)
	}
	if !minimal {
		enc := make([]byte, 0, len(payload))
		for _, at := range r.offs[:len(r.offs)-1] {
			v, _ := binary.Uvarint(payload[at:])
			enc = binary.AppendUvarint(enc, v)
		}
		return NewRef(enc)
	}
	return r, nil
}

// word is the representative's i-th word: zero past its end.
func (r *Ref) word(i int) uint64 {
	if i >= len(r.offs)-1 {
		return 0
	}
	v, _ := binary.Uvarint(r.enc[r.offs[i]:])
	return v
}

// appendWords appends the encoding of words [i, j) to out in one copy, a zero
// byte for each word past the representative's end.
func (r *Ref) appendWords(out []byte, i, j int) []byte {
	n := len(r.offs) - 1
	out = append(out, r.enc[r.offs[min(i, n)]:r.offs[min(j, n)]]...)
	for k := max(i, n); k < j; k++ {
		out = append(out, 0)
	}
	return out
}

// DeltaPayload encodes payload as a word-wise XOR delta against ref. payload
// must be a well-formed uvarint stream (SplitEncoded payloads always are).
// Reassembling the delta against the same ref reproduces payload whenever
// payload is minimally encoded — corpus ingest verifies that round trip
// before committing a delta.
func DeltaPayload(payload []byte, ref *Ref) ([]byte, error) {
	// The word count leads the delta but is known last: the body is written
	// behind room for the longest count and the count is laid right before it.
	const room = binary.MaxVarintLen64
	out := make([]byte, room, room+len(payload)/4)
	pc := &bcur{b: payload}
	words := 0
	for ; pc.off < len(payload); words++ {
		x := pc.u() ^ ref.word(words)
		if pc.err != nil {
			return nil, fmt.Errorf("merge: delta payload: %w", pc.err)
		}
		if x == 0 {
			out = append(out, 0)
			continue
		}
		ntz := bits.TrailingZeros64(x)
		out = binary.AppendUvarint(out, uint64(ntz)+1)
		out = binary.AppendUvarint(out, x>>uint(ntz))
	}
	var count [room]byte
	start := room - binary.PutUvarint(count[:], uint64(words))
	copy(out[start:room], count[:])
	return out[start:], nil
}

// patcher streams the words of a delta-coded payload: each is the delta's
// next token XORed onto the representative's next word. Failures latch in the
// delta cursor; left counts the words the delta still declares, and patched
// the words whose token was not zero.
type patcher struct {
	d       bcur
	ref     *Ref
	next    int // index of the run's next word
	left    uint64
	patched int64
}

// words appends the run's next n words to out. A run of zero tokens, the
// commonest case by far, copies the representative's bytes in one append;
// any other token is XORed onto the representative's word and the result
// re-encoded minimally.
func (w *patcher) words(out []byte, n uint64) []byte {
	d := &w.d
	for n > 0 && d.err == nil {
		if w.left == 0 {
			d.fail("merge: patch: the delta holds fewer words than the structure has volatile fields")
			break
		}
		k, lim := 0, min(n, w.left)
		for uint64(k) < lim && d.off+k < len(d.b) && d.b[d.off+k] == 0 {
			k++
		}
		if k > 0 {
			out = w.ref.appendWords(out, w.next, w.next+k)
			d.off += k
			w.next += k
			w.left -= uint64(k)
			n -= uint64(k)
			continue
		}
		var x uint64
		if t := d.u(); t != 0 {
			m := d.u()
			sh := uint(t - 1)
			switch {
			case t > 64:
				d.fail("merge: patch: shift %d out of range", t)
			case sh > 0 && m>>(64-sh) != 0:
				d.fail("merge: patch: word overflows shift %d at offset %d", sh, d.off)
			}
			x = m << sh
			w.patched++
		}
		out = binary.AppendUvarint(out, x^w.ref.word(w.next))
		w.next++
		w.left--
		n--
	}
	return out
}

// volatile appends one record's volatile suffix (skipVolatile's grammar) to
// out: six words, and in histogram mode a bucket count and two words a bucket.
func (w *patcher) volatile(out []byte, hist bool) []byte {
	if !hist {
		return w.words(out, 6)
	}
	out = w.words(out, 6)
	at := len(out)
	out = w.words(out, 1)
	nz, _ := binary.Uvarint(out[at:])
	if nz > timestat.HistBuckets {
		w.d.fail("merge: patch: implausible histogram bucket count %d", nz)
	}
	return w.words(out, 2*nz)
}

// hashWindow is how many bytes of dropped groups a projected Reassemble
// gathers before it folds them into the content hash in one Write. A Write
// costs about as much as folding 120 bytes (fp.Stream over SP-1024's 828 KB:
// 0.86 ms in 21 000 pieces, 0.21 ms in one), and a group there is 70 bytes.
// The window, the kept groups of one rank and the group being written fit in
// the 4 KiB of room the projected output is allocated with.
const hashWindow = 1 << 10

// Reassemble rebuilds the standalone encoding of one run of the plan's class
// from the class representative and the run's DeltaPayload against it, in
// one pass: representative bytes, patched words and structure runs stream
// straight into the output, and every byte is folded into the content hash
// (Joined.Hash). The delta must be consumed exactly and declare exactly as
// many words as the structure has volatile fields, or it is an error. Under
// SelectAll the output is allocated once at sizeHint (the run's recorded
// encoding length; a wrong hint costs a regrow, nothing else), is hashed once
// when it is complete, is byte-identical to SplitEncoded's input whenever
// that input's payload was minimally encoded, and carries the length of every
// VData section as this pass wrote it. No rank set is parsed.
//
// Under a projection every byte is still produced and hashed, but a group no
// selected rank belongs to is not kept, and each vertex's entry count is
// rewritten to the groups kept. Which groups those are is settled by the
// plan's rank ranges first: a group whose range holds no selected rank is
// dropped unparsed, and only the rank sets of the others are parsed from the
// structure stream and tested (Selection.matches), as the decoder would; a
// rank set that does not parse is an error (the plan gives such a set the
// widest range, so it is always parsed). The bytes of dropped groups gather
// behind the kept ones and are hashed hashWindow bytes at a time; a kept
// group is hashed with them and moves down over them. Enc is then the v1
// encoding of the projected tree, which Joined.Decode reads under the same
// selection. Each reassembly adds the words it patched to the attached sink's
// corpus_patched_words.
func (p *Plan) Reassemble(ref *Ref, delta []byte, sizeHint int, sel Selection) (Joined, error) {
	w := patcher{d: bcur{b: delta}, ref: ref}
	w.left = w.d.u()
	// Every word costs the delta at least one byte and the output at most ten.
	if w.d.err == nil && w.left > uint64(len(delta)) {
		w.d.fail("merge: patch: implausible word count %d", w.left)
	}
	if w.d.err != nil {
		return Joined{}, w.d.err
	}
	st := p.structure
	j := Joined{written: true, sel: sel}
	// A projection holds the header, the entry counts and its own groups; the
	// room past them takes the window being hashed.
	size := p.vert(0) + len(p.verts) + 4<<10
	if sel.all {
		size = min(max(sizeHint, 0), len(st)+binary.MaxVarintLen64*int(w.left))
		j.lens = make([]uint64, 0, len(p.secs))
	}
	out := make([]byte, 0, size)
	hs := fp.NewStream()
	out = append(out, st[:p.vert(0)]...)
	// Under a projection out[:hashed] is hashed and kept, and out[hashed:] is
	// the window: bytes produced but not yet hashed, kept only if they are the
	// group just written. Under SelectAll nothing is hashed before the end.
	hashed := 0
	if !sel.all {
		hs.Write(out)
		hashed = len(out)
	}
	pick := decoder{bcur: bcur{b: st}} // reads rank sets for a projection
	pos, secs, cuts := p.vert(0), p.secs, p.cuts
	for g := range p.verts {
		// The entry count, written as stored; a projection hashes it with the
		// window and writes its own at the end of the vertex.
		_, n := binary.Uvarint(st[pos:])
		if n <= 0 {
			return Joined{}, fmt.Errorf("merge: entry count of vertex %d at structure offset %d", g, pos)
		}
		at := hashed
		out = append(out, st[pos:pos+n]...)
		pos += n
		kept := 0
		for end := p.vert(g + 1); len(secs) > 0 && int(secs[0].start) < end; secs = secs[1:] {
			sec := &secs[0]
			keep := sel.all
			if !keep && sec.mayHold(sel) {
				pick.off = pos
				j.parsed++
				if keep = pick.picks(sel, pick.setRuns()); pick.err != nil {
					return Joined{}, fmt.Errorf("merge: rank set of vertex %d: %w", g, pick.err)
				}
			}
			begin := len(out)
			out = append(out, st[pos:sec.start]...)
			pos = int(sec.start)
			body := len(out)
			for _, cut := range cuts[:sec.ncuts] {
				out = append(out, st[pos:cut]...)
				pos = int(cut)
				out = w.volatile(out, p.hist)
				if w.d.err != nil {
					return Joined{}, w.d.err
				}
			}
			cuts = cuts[sec.ncuts:]
			out = append(out, st[pos:sec.end]...)
			pos = int(sec.end)
			switch {
			case sel.all:
				j.lens = append(j.lens, uint64(len(out)-body))
			case keep:
				j.lens = append(j.lens, uint64(len(out)-body))
				kept++
				hs.Write(out[hashed:])
				hashed += copy(out[hashed:], out[begin:])
				out = out[:hashed]
			default:
				j.skipped++
				j.skippedB += int64(len(out) - body)
				if len(out)-hashed >= hashWindow {
					hs.Write(out[hashed:])
					out = out[:hashed]
				}
			}
		}
		if !sel.all {
			var cnt [binary.MaxVarintLen64]byte
			c := cnt[:binary.PutUvarint(cnt[:], uint64(kept))]
			out = slices.Insert(out, at, c...)
			hashed += len(c)
		}
	}
	tail := len(out)
	out = append(out, st[pos:]...)
	hs.Write(out[hashed:])
	if !sel.all {
		out = out[:hashed+copy(out[hashed:], out[tail:])]
	}
	if w.left != 0 {
		return Joined{}, fmt.Errorf("merge: patch: %d delta words beyond the structure's volatile fields", w.left)
	}
	if rest := len(delta) - w.d.off; rest != 0 {
		return Joined{}, fmt.Errorf("merge: patch: %d trailing delta bytes", rest)
	}
	obs.Attached().Add(obs.CorpusPatchedWords, w.patched)
	j.Enc, j.Hash = out, uint64(hs.Sum())
	return j, nil
}
