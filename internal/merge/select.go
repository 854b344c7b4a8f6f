package merge

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/blockio"
	"repro/internal/ctt"
	"repro/internal/obs"
	"repro/internal/rankset"
	"repro/internal/timestat"
)

// Selective decode with projection pushdown. The v1 encoding interleaves the
// (tiny) structure stream — header, CST, rank sets — with the (large) per-entry
// VData timing payloads, so even a single-rank query historically paid a
// full-tree payload decode. DecodeSelectAuto pushes the rank projection into
// the decoder: structure decodes fully, but a payload section is decoded only
// when its entry's rank set intersects the selection; everything else is
// passed over, and the tree serves the selected ranks alone.
//
// Skipped sections of a file are not decoded, but they are walked: an
// allocation-free grammar walk over the raw bytes finds each section's end.
// The CYPI section index — a versioned sidecar appended AFTER the complete v1
// body (see EncodeIndexed), so indexed files remain bit-compatible with every
// existing decoder — lists every section's length and is held against that
// walk as a cross-check. It is not used to seek: nothing in the v1 format lets
// a reader confirm a skip it did not parse, and an unconfirmed skip puts every
// later rank set at an unverified offset. The one table the decoder does seek
// by is the one it did not read: the section lengths Plan.Reassemble observed
// while writing the very bytes being decoded (Joined.Decode).

// Selection names the ranks a selective decode must decode payloads for.
// The zero value selects nothing (structure-only decode).
type Selection struct {
	all   bool
	ranks []int // sorted, deduplicated
}

// SelectAll selects every rank: DecodeSelectAuto decodes all payloads,
// matching a full Decode.
func SelectAll() Selection { return Selection{all: true} }

// SelectRanks selects the given ranks. With no arguments the selection is
// empty and DecodeSelectAuto decodes structure only: the tree serves no rank.
func SelectRanks(ranks ...int) Selection {
	rs := append([]int(nil), ranks...)
	sort.Ints(rs)
	n := 0
	for i, r := range rs {
		if i == 0 || r != rs[n-1] {
			rs[n] = r
			n++
		}
	}
	return Selection{ranks: rs[:n]}
}

// All reports whether the selection covers every rank.
func (s Selection) All() bool { return s.all }

// Ranks returns the selected ranks, sorted and deduplicated (nil when All).
func (s Selection) Ranks() []int { return append([]int(nil), s.ranks...) }

// Contains reports whether rank is selected.
func (s Selection) Contains(rank int) bool {
	if s.all {
		return true
	}
	i := sort.SearchInts(s.ranks, rank)
	return i < len(s.ranks) && s.ranks[i] == rank
}

// anyIn reports whether a selected rank lies in [lo, hi], by a binary search
// of the sorted ranks.
func (s Selection) anyIn(lo, hi int) bool {
	if s.all {
		return true
	}
	i, _ := slices.BinarySearch(s.ranks, lo)
	return i < len(s.ranks) && s.ranks[i] <= hi
}

// equal reports whether s and o select the same ranks.
func (s Selection) equal(o Selection) bool {
	return s.all == o.all && slices.Equal(s.ranks, o.ranks)
}

// String renders the selection for errors: "all ranks" or "ranks [1 3]".
func (s Selection) String() string {
	if s.all {
		return "all ranks"
	}
	return fmt.Sprintf("ranks %v", s.ranks)
}

// matches reports whether any selected rank is a member of set.
func (s Selection) matches(set *rankset.Set) bool {
	if s.all {
		return true
	}
	for _, r := range s.ranks {
		if set.Contains(r) {
			return true
		}
	}
	return false
}

// The sidecar layout:
//
//	"CYPI"  u(version=1)  u(entryCount)  entryCount x u(vdataLen)
//	u32le(sidecar length from magic through last varint)  "IPYC"
//
// The fixed 8-byte trailer makes the index discoverable from the END of the
// encoding, so the decoder needs no body length up front; the validation in
// parseIndex (magic, version, length walk landing exactly on the trailer)
// makes body bytes that merely end in "IPYC" fail closed into the index-less
// path rather than misparse.
var (
	indexMagic   = [4]byte{'C', 'Y', 'P', 'I'}
	indexTrailer = [4]byte{'I', 'P', 'Y', 'C'}
)

const indexVersion = 1

// appendIndex serializes the section-index sidecar for the given per-entry
// VData section lengths.
func appendIndex(dst []byte, lens []uint64) []byte {
	start := len(dst)
	dst = append(dst, indexMagic[:]...)
	dst = binary.AppendUvarint(dst, indexVersion)
	dst = binary.AppendUvarint(dst, uint64(len(lens)))
	for _, l := range lens {
		dst = binary.AppendUvarint(dst, l)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dst)-start))
	return append(dst, indexTrailer[:]...)
}

// parseIndex validates and reads a CYPI sidecar anchored at the end of enc,
// returning the per-entry section lengths and the offset where the v1 body
// ends. ok is false when enc carries no (valid) sidecar, in which case
// bodyEnd is len(enc).
func parseIndex(enc []byte) (lens []uint64, bodyEnd int, ok bool) {
	n := len(enc)
	const trailer = 8 // u32le sidecar length + "IPYC"
	const minSidecar = 6
	if n < trailer+minSidecar {
		return nil, n, false
	}
	if [4]byte(enc[n-4:]) != indexTrailer {
		return nil, n, false
	}
	sideLen := int(binary.LittleEndian.Uint32(enc[n-trailer : n-4]))
	start := n - trailer - sideLen
	if sideLen < minSidecar || start < 0 {
		return nil, n, false
	}
	if [4]byte(enc[start:start+4]) != indexMagic {
		return nil, n, false
	}
	c := &bcur{b: enc[:n-trailer], off: start + 4}
	if v := c.u(); c.err != nil || v != indexVersion {
		return nil, n, false
	}
	cnt := c.u()
	// Each length costs at least one byte, so a valid count is bounded by the
	// sidecar itself — a hostile count cannot force a large allocation.
	if c.err != nil || cnt > uint64(sideLen) {
		return nil, n, false
	}
	lens = make([]uint64, cnt)
	for i := range lens {
		lens[i] = c.u()
	}
	if c.err != nil || c.off != n-trailer {
		return nil, n, false
	}
	return lens, start, true
}

// EncodeIndexed writes the merged tree as a standard v1 encoding followed by
// the CYPI section index and returns the total byte count. The body bytes are
// identical to Encode's output, so existing decoders read indexed files
// unchanged (the sidecar rides in the historical trailing-bytes tolerance of
// raw and gzip streams); DecodeSelectAuto checks every section it parses or
// walks against the index and falls back to a full decode when they disagree.
// Indexed output is never containered: the CYPB footer index already pins the
// framed payload length. Indexed files inside a gzip member, which older
// writers produced, still read like any other gzip trace.
func (m *Merged) EncodeIndexed(out io.Writer) (int64, error) {
	var lens []uint64
	n, err := m.encode(out, &lens)
	if err != nil {
		return 0, err
	}
	side := appendIndex(nil, lens)
	if _, err := out.Write(side); err != nil {
		return 0, err
	}
	return n + int64(len(side)), nil
}

// whole reports an error when m is a projection: op reads every payload.
func (m *Merged) whole(op string) error {
	if m.proj == nil {
		return nil
	}
	return fmt.Errorf("merge: %s reads every rank, the tree is a projection onto ranks %v", op, m.proj.ranks)
}

// serves reports an error when m is a projection that does not select rank.
func (m *Merged) serves(rank int) error {
	if m.proj == nil || m.proj.Contains(rank) {
		return nil
	}
	return fmt.Errorf("merge: rank %d is outside the projection onto ranks %v", rank, m.proj.ranks)
}

// DecodeSelectAuto decodes a trace held in memory — in any container
// cypresstrace writes: bare CYPR (with or without the CYPI sidecar), gzip, or
// the CYPB block container (see blockio.Unwrap) — with the rank projection sel
// pushed into the decoder. workers is ignored: every read inflates on the
// caller's goroutine. The argument stays only because the ledger benchmark
// calls this signature.
// Containered inputs pay one unwrap into a fresh payload buffer; bare input
// is served zero-copy. The structure stream is decoded fully, but a timing
// payload is decoded only when its entry's rank set intersects sel; every
// other section is walked for its framing and its group dropped: the tree's
// entry lists hold the selected ranks' groups alone, and only those groups'
// entries and rank sets are allocated. The returned tree keeps nothing of
// data.
//
// Unless sel is SelectAll the tree is a projection: the Streamer replays and
// iterates the selected ranks only, and every operation that reads all
// payloads — Prepare, ReplayAll, Encode and its variants, Pair — returns an
// error. Any failure in the selective walk itself — including index-less
// inputs whose grammar walk trips — reruns the same decoder over the same
// bytes with the projection off and then drops the unselected groups, so
// DecodeSelectAuto succeeds on everything Decode succeeds on, and returns the
// same projection either way.
func DecodeSelectAuto(data []byte, sel Selection, _ int) (*Merged, error) {
	payload, _, err := blockio.Unwrap(data)
	if err != nil {
		return nil, err
	}
	// A CYPI sidecar, if any, is cut off: the decoder runs over the body alone.
	lens, bodyEnd, indexed := parseIndex(payload)
	return decodeProjected(payload, &projection{
		sel: sel, indexed: indexed, lens: lens, body: payload[:bodyEnd],
	})
}

// Decode decodes the joined encoding under sel. A Joined that Reassemble
// wrote holds only the groups of the selection it was written under, which
// sel must equal; its section table is held against every section, and a
// failure is an error: the bytes were hashed whole before anything decoded
// them, and a partial buffer has no full decode to fall back to. A Joined
// built by hand is DecodeSelectAuto over Enc.
func (j Joined) Decode(sel Selection) (*Merged, error) {
	if !j.written {
		return DecodeSelectAuto(j.Enc, sel, 0)
	}
	if !sel.equal(j.sel) {
		return nil, fmt.Errorf("merge: an encoding reassembled for %v decoded for %v", j.sel, sel)
	}
	p := &projection{sel: sel, indexed: true, lens: j.lens, body: j.Enc,
		skipped: j.skipped, skippedB: j.skippedB}
	m, err := decodePayload(j.Enc, p)
	if err != nil {
		return nil, err
	}
	p.mark(m)
	return m, nil
}

// decodeProjected decodes p's body under p and, should the selective walk
// fail for any reason — including index-less inputs whose grammar walk trips —
// reruns the same decoder over payload with the projection off and keeps the
// selected groups of what it decoded. Either tree is marked with the
// projection.
func decodeProjected(payload []byte, p *projection) (*Merged, error) {
	m, err := decodePayload(p.body, p)
	if err != nil {
		obs.Attached().Inc(obs.SelFallbacks)
		if m, err = decodePayload(payload, nil); err != nil {
			return nil, err
		}
		for gid, es := range m.Entries {
			m.Entries[gid] = slices.DeleteFunc(es, func(e Entry) bool { return !p.sel.matches(e.Ranks) })
		}
	}
	p.mark(m)
	return m, nil
}

// mark records p's selection on m unless it selects every rank.
func (p *projection) mark(m *Merged) {
	if !p.sel.all {
		sel := p.sel
		m.proj = &sel
	}
}

// projection is the per-call state of a selective decode: the selection, the
// body the decoder's cursor runs over, and the section lengths when the
// encoding comes with them (a CYPI sidecar, or the lengths Reassemble
// observed). The counters start at what Reassemble left out, if anything.
type projection struct {
	sel     Selection
	body    []byte
	indexed bool
	lens    []uint64 // consumed in stream order; next is lens[li]
	li      int

	eager, skipped   int64 // entries
	eagerB, skippedB int64 // payload bytes
}

// section handles one group's payload section, the cursor standing at its
// first byte: decode it when the group is kept, otherwise find its end and
// return nil. The end of a skipped section is found by walking its grammar,
// and the index entry, when there is one, must name exactly where the walk
// stopped: a table that came with the input is a cross-check, never a seek,
// because a skip the stream has not confirmed would have every later rank set
// parsed from an unverified offset (fuzz-found: lengths wrong one by one but
// right in sum decoded "cleanly" into a misaligned tree). Failures latch in
// d.err.
func (p *projection) section(d *decoder, eager bool, gid int32, mode timestat.Mode) (data *ctt.VData) {
	start := int64(d.off)
	if eager {
		data = &d.vds.carve(1, 1)[0]
		d.decodeVData(data, gid, mode)
	} else {
		hist := mode == timestat.ModeHistogram
		walkVData(&d.bcur, func() { skipVolatile(&d.bcur, hist) })
	}
	if d.err != nil {
		return nil
	}
	end := int64(d.off)
	if p.indexed {
		if p.li >= len(p.lens) {
			d.fail("section index lists %d entries, stream has more", len(p.lens))
			return nil
		}
		if want := p.lens[p.li]; want != uint64(end-start) {
			d.fail("section index length %d disagrees with the %d-byte section at offset %d", want, end-start, start)
			return nil
		}
		p.li++
	}
	if eager {
		p.eager++
		p.eagerB += end - start
	} else {
		p.skipped++
		p.skippedB += end - start
	}
	return data
}

// finish closes a selective decode: the index must list exactly the stream's
// sections and sit right behind them (a mismatch falls back to the full
// decode).
func (p *projection) finish(d *decoder) error {
	if p.indexed {
		if p.li != len(p.lens) {
			return fmt.Errorf("merge: section index lists %d entries, stream has %d", len(p.lens), p.li)
		}
		if rest := len(d.b) - d.off; rest != 0 {
			return fmt.Errorf("merge: %d stray bytes between entries and section index", rest)
		}
	}
	if sink := obs.Attached(); sink.Enabled() {
		sink.Inc(obs.SelDecodes)
		sink.Add(obs.SelEntriesEager, p.eager)
		sink.Add(obs.SelEntriesSkipped, p.skipped)
		sink.Add(obs.SelBytesMaterialized, p.eagerB)
		sink.Add(obs.SelBytesSkipped, p.skippedB)
	}
	return nil
}
