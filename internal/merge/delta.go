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
// into a structure stream and a payload stream without re-encoding anything;
// JoinEncoded interleaves the two streams back. Join(Split(x)) == x holds for
// every stream the walker accepts because both sides copy byte ranges of the
// original — no value round-trips through a decode/encode cycle, so the
// decoder's normalizations (it drops the second timing moment) cannot leak
// into reconstruction. DeltaPayload/PatchPayload then compress one run's
// payload stream against a structurally identical representative's.

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/fp"
	"repro/internal/timestat"
)

// SplitTrace is a v1 encoding partitioned into its structural skeleton and
// its volatile payload. Structure holds every byte that is a function of the
// program and rank count (header, CST, rank sets, control vectors, record
// parameters) in stream order; Payload holds the per-record time-statistic
// suffixes, also in stream order. Concatenating the two streams back in
// grammar order (JoinEncoded) reproduces the original bytes exactly.
type SplitTrace struct {
	// TreeHash and NumRanks are lifted from the header for indexing.
	TreeHash uint64
	NumRanks int
	// Hist records the header's histogram-mode flag, which decides whether
	// payload records carry bucket lists.
	Hist bool

	Structure []byte
	Payload   []byte

	// HeaderFP fingerprints the header-plus-CST prefix of the structure
	// stream; SectionFP[gid] fingerprints vertex gid's structural section.
	// ClassKey folds them all, so two encodings share a class key exactly when
	// their structure streams are byte-identical (modulo a 2^-64 collision,
	// which ingest guards against by comparing the streams).
	HeaderFP  uint64
	SectionFP []uint64
}

// ClassKey folds the whole-tree structural fingerprint: the header/CST prefix
// fingerprint plus every per-vertex section fingerprint in vertex order.
func (s *SplitTrace) ClassKey() uint64 {
	h := fp.New().Word(s.HeaderFP)
	for _, sf := range s.SectionFP {
		h = h.Word(sf)
	}
	return uint64(h)
}

// skipRuns walks one run-length list (rank sets, loop/taken vectors). The
// count cap mirrors the decoder's plausibility bound; the walk itself is
// allocation-free, and each element consumes at least three bytes, so a
// hostile count degrades into a fast cursor error.
func (c *bcur) skipRuns() {
	n := c.u()
	if n > 1<<20 {
		c.fail("merge: implausible run count %d at offset %d", n, c.off)
	}
	for j := uint64(0); j < n && c.err == nil; j++ {
		c.i()
		c.i()
		c.u()
	}
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
// the payload stream, JoinEncoded takes it from the payload cursor. The walk
// ends at the first latched cursor error.
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
// streams (see SplitTrace). It validates the grammar syntactically — counts
// within the decoder's plausibility caps, varints well-formed, no trailing
// bytes — but not semantically; a stream that splits cleanly may still fail
// Decode, and reconstruction fidelity is byte-level either way.
func SplitEncoded(enc []byte) (*SplitTrace, error) {
	c := &bcur{b: enc}
	h := c.header(true)
	if c.err != nil {
		return nil, c.err
	}
	s := &SplitTrace{TreeHash: h.treeHash, NumRanks: h.numRanks, Hist: h.hist}
	nverts := h.tree.NumVertices()
	s.Structure = append(s.Structure, enc[:c.off]...)
	s.HeaderFP = uint64(fp.New().Bytes(s.Structure))
	s.SectionFP = make([]uint64, nverts)
	mark := c.off
	cut := func() {
		vs := c.off
		skipVolatile(c, s.Hist)
		if c.err != nil {
			return
		}
		s.Structure = append(s.Structure, enc[mark:vs]...)
		s.Payload = append(s.Payload, enc[vs:c.off]...)
		mark = c.off
	}
	for gid := 0; gid < nverts; gid++ {
		secStart := len(s.Structure)
		n := c.u()
		if c.err != nil {
			return nil, fmt.Errorf("merge: split vertex %d: %w", gid, c.err)
		}
		if n > maxEntries {
			return nil, fmt.Errorf("merge: split vertex %d: implausible entry count %d", gid, n)
		}
		for k := uint64(0); k < n; k++ {
			c.skipRuns() // rank set
			walkVData(c, cut)
			if c.err != nil {
				return nil, fmt.Errorf("merge: split vertex %d entry %d: %w", gid, k, c.err)
			}
		}
		s.Structure = append(s.Structure, enc[mark:c.off]...)
		mark = c.off
		s.SectionFP[gid] = uint64(fp.New().Bytes(s.Structure[secStart:]))
	}
	if c.off != len(enc) {
		return nil, fmt.Errorf("merge: split: %d trailing bytes", len(enc)-c.off)
	}
	return s, nil
}

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

// Payload streams are pure uvarint vectors (skipVolatile's invariant), which
// makes the delta codec grammar-free: decode both vectors, XOR element-wise
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
// a misaligned pair just XORs unrelated words and encodes longer.

// DeltaPayload encodes payload as a word-wise XOR delta against ref. Both
// arguments must be well-formed uvarint streams (SplitEncoded payloads always
// are). PatchPayload(DeltaPayload(p, ref), ref) == p whenever p is minimally
// encoded — corpus ingest verifies that round trip before committing a delta.
func DeltaPayload(payload, ref []byte) ([]byte, error) {
	pw, err := uvarintWords(payload)
	if err != nil {
		return nil, fmt.Errorf("merge: delta payload: %w", err)
	}
	rw, err := uvarintWords(ref)
	if err != nil {
		return nil, fmt.Errorf("merge: delta ref: %w", err)
	}
	out := binary.AppendUvarint(nil, uint64(len(pw)))
	for i, v := range pw {
		var r uint64
		if i < len(rw) {
			r = rw[i]
		}
		x := v ^ r
		if x == 0 {
			out = append(out, 0)
			continue
		}
		ntz := bits.TrailingZeros64(x)
		out = binary.AppendUvarint(out, uint64(ntz)+1)
		out = binary.AppendUvarint(out, x>>uint(ntz))
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
