package merge

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/blockio"
	"repro/internal/ctt"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/rankset"
	"repro/internal/timestat"
)

// Selective decode with projection pushdown. The v1 encoding interleaves the
// (tiny) structure stream — header, CST, rank sets — with the (large) per-entry
// VData timing payloads, so even a single-rank query historically paid a
// full-tree payload decode. DecodeSelectAuto pushes the rank projection into
// the decoder: structure decodes fully, but a payload section is materialized
// only when its entry's rank set intersects the selection; everything else is
// recorded as a byte range against the retained encoding and filled lazily on
// first touch.
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

// Selection names the ranks a selective decode must materialize payloads for.
// The zero value selects nothing (structure-only decode).
type Selection struct {
	all   bool
	ranks []int // sorted, deduplicated
}

// SelectAll selects every rank: DecodeSelectAuto materializes all payloads
// eagerly, matching a full Decode.
func SelectAll() Selection { return Selection{all: true} }

// SelectRanks selects the given ranks. With no arguments the selection is
// empty and DecodeSelectAuto decodes structure only, leaving every payload
// lazy.
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

// lazySlot is one unmaterialized payload: the byte range of its VData section
// within the retained encoding, and the vertex the section belongs to (a fill
// happens long after the walk that knew it).
type lazySlot struct {
	start, end int64
	gid        int32
}

// lazyPayloads is the decoder-owned arena behind a selectively decoded tree:
// the retained body bytes, one slot per skipped entry, and the fill decoder
// whose slabs every on-demand fill is carved from.
type lazyPayloads struct {
	body  []byte // payload[:bodyEnd]; aliases DecodeSelectAuto's unwrapped payload
	mode  timestat.Mode
	slots []lazySlot
	// filled publishes completed fills; entryData's fast path is one atomic
	// load, so concurrent replay over a projected tree stays lock-free after
	// first touch.
	filled []atomic.Pointer[ctt.VData]

	mu  sync.Mutex
	dec decoder // fill decoder, guarded by mu (fills share its slabs)
}

// fill decodes slot's payload section on first touch and publishes it.
func (lp *lazyPayloads) fill(slot int) (*ctt.VData, error) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if vd := lp.filled[slot].Load(); vd != nil {
		return vd, nil
	}
	s := lp.slots[slot]
	d := &lp.dec
	// A fresh cursor bounded at the section's end: offsets in errors stay
	// absolute, and the latched error of any prior fill is gone.
	d.bcur = bcur{b: lp.body[:s.end], off: int(s.start)}
	vd := d.vdata()
	d.decodeVData(vd, s.gid, lp.mode)
	if d.err != nil {
		return nil, fmt.Errorf("merge: lazy payload fill: %w", d.err)
	}
	if rest := int(s.end) - d.off; rest != 0 {
		return nil, fmt.Errorf("merge: lazy payload fill: %d trailing bytes in section ending at offset %d", rest, s.end)
	}
	if sink := obs.Attached(); sink.Enabled() {
		sink.Inc(obs.SelLazyFills)
		sink.Add(obs.SelLazyFillBytes, s.end-s.start)
	}
	obs.AttachedRecorder().Instant(ftrace.CatCodec, ftrace.NameLazyFill, 0, int64(slot), s.end-s.start)
	lp.filled[slot].Store(vd)
	return vd, nil
}

// entryData returns e's payload, filling it from the retained encoding on
// first touch when the tree was decoded selectively. The fast paths — an
// eagerly decoded entry, or a lazy entry already filled — are a field check
// plus at most one atomic load, so replay loops stay allocation-free.
func (m *Merged) entryData(e *Entry) (*ctt.VData, error) {
	if e.lazy == 0 {
		return e.Data, nil
	}
	slot := int(e.lazy - 1)
	if vd := m.lazy.filled[slot].Load(); vd != nil {
		return vd, nil
	}
	return m.lazy.fill(slot)
}

// Materialize fills every unmaterialized payload of a selectively decoded
// tree and publishes each into its Entry.Data, after which the tree behaves
// exactly like a full Decode. It is NOT safe to call concurrently with
// readers of the same tree (Entry.Data is plain-written); Encode and Pair,
// which call it implicitly, already require exclusive access. Concurrent
// replay never needs it — the Streamer routes through entryData's atomic
// path. On a fully decoded tree Materialize returns immediately.
func (m *Merged) Materialize() error {
	if m.lazy == nil {
		return nil
	}
	for gid := range m.Entries {
		es := m.Entries[gid]
		for i := range es {
			if es[i].lazy == 0 || es[i].Data != nil {
				continue
			}
			vd, err := m.entryData(&es[i])
			if err != nil {
				return err
			}
			es[i].Data = vd
		}
	}
	return nil
}

// DecodeSelectAuto decodes a trace held in memory — in any container
// cypresstrace writes: bare CYPR (with or without the CYPI sidecar), gzip, or
// the CYPB block container (see blockio.Unwrap; workers are its inflate
// lanes, <= 1 inline) — with the rank projection sel pushed into the decoder.
// Containered inputs pay one unwrap into a fresh payload buffer; bare input
// is served zero-copy. The structure stream is decoded fully, but a timing
// payload is materialized only when its entry's rank set intersects sel;
// every other entry records its payload's byte range and is filled lazily on
// first touch through entryData. The returned tree therefore retains the
// payload — the caller must not modify data afterwards.
//
// Skipped sections are validated for framing only; their contents are
// re-validated when (if ever) they are filled, so a projected decode of a
// corrupt file can surface the corruption at replay time rather than decode
// time. Any failure in the selective walk itself — including index-less
// inputs whose grammar walk trips — reruns the same decoder over the same
// bytes with the projection off, so DecodeSelectAuto succeeds on everything
// Decode succeeds on.
func DecodeSelectAuto(data []byte, sel Selection, workers int) (*Merged, error) {
	payload, _, err := blockio.Unwrap(data, workers)
	if err != nil {
		return nil, err
	}
	// A CYPI sidecar, if any, is cut off: the decoder runs over the body alone.
	lens, bodyEnd, indexed := parseIndex(payload)
	return decodeProjected(payload, &projection{
		sel: sel, indexed: indexed, lens: lens, lz: &lazyPayloads{body: payload[:bodyEnd]},
	})
}

// Decode is DecodeSelectAuto over the joined encoding, except that sections
// outside the selection are not walked: the decoder seeks over each by the
// length Reassemble observed while writing it. That is sound where seeking by
// a CYPI sidecar is not, because the table is not input — it was produced by
// the pass that produced the bytes, from a structure stream whose grammar was
// walked when its plan was built. It is still held to everything an index is:
// a section that is parsed must end where the table says, the table and the
// stream must end together, and any disagreement reruns the full decode.
func (j Joined) Decode(sel Selection) (*Merged, error) {
	if j.lens == nil {
		return DecodeSelectAuto(j.Enc, sel, 1)
	}
	return decodeProjected(j.Enc, &projection{
		sel: sel, indexed: true, seek: true, lens: j.lens, lz: &lazyPayloads{body: j.Enc},
	})
}

// decodeProjected decodes p's body under p and, should the selective walk
// fail for any reason — including index-less inputs whose grammar walk trips —
// reruns the same decoder over payload with the projection off.
func decodeProjected(payload []byte, p *projection) (*Merged, error) {
	m, err := decodePayload(p.lz.body, p)
	if err == nil {
		return m, nil
	}
	obs.Attached().Inc(obs.SelFallbacks)
	return decodePayload(payload, nil)
}

// projection is the per-call state of a selective decode: the selection, the
// section lengths when the encoding comes with them (a CYPI sidecar, or the
// lengths Reassemble observed), and the lazy arena under construction (decode
// sets its stat mode from the header). The decoder's cursor runs over
// lz.body, so the offsets it stops at are the slots' byte ranges.
type projection struct {
	sel     Selection
	indexed bool
	seek    bool     // lens may move the cursor over unselected sections
	lens    []uint64 // consumed in stream order; next is lens[li]
	li      int
	lz      *lazyPayloads

	eager, skipped   int64 // entries
	eagerB, skippedB int64 // payload bytes
}

// section handles entry e's payload section, the cursor standing at its first
// byte: decode it when e's ranks intersect the selection, otherwise find its
// end and leave e a lazy slot. The end of a skipped section is found by
// walking its grammar, and the index entry, when there is one, must name
// exactly where the walk stopped: a table that came with the input is a
// cross-check, never a seek, because a skip the stream has not confirmed would
// have every later rank set parsed from an unverified offset (fuzz-found:
// lengths wrong one by one but right in sum decoded "cleanly" into a
// misaligned tree). Only Reassemble's own table (p.seek) moves the cursor
// without a walk. Failures latch in d.err.
func (p *projection) section(d *decoder, e *Entry, gid int32) {
	mode := p.lz.mode
	start := int64(d.off)
	eager := p.sel.matches(e.Ranks)
	switch {
	case eager:
		e.Data = d.vdata()
		d.decodeVData(e.Data, gid, mode)
	case p.seek && p.li < len(p.lens) && p.lens[p.li] <= uint64(len(d.b)-d.off):
		d.off += int(p.lens[p.li])
	default:
		hist := mode == timestat.ModeHistogram
		walkVData(&d.bcur, func() { skipVolatile(&d.bcur, hist) })
	}
	if d.err != nil {
		return
	}
	end := int64(d.off)
	if p.indexed {
		if p.li >= len(p.lens) {
			d.fail("section index lists %d entries, stream has more", len(p.lens))
			return
		}
		if want := p.lens[p.li]; want != uint64(end-start) {
			d.fail("section index length %d disagrees with the %d-byte section at offset %d", want, end-start, start)
			return
		}
		p.li++
	}
	if eager {
		p.eager++
		p.eagerB += end - start
		return
	}
	p.lz.slots = append(p.lz.slots, lazySlot{start: start, end: end, gid: gid})
	e.lazy = int32(len(p.lz.slots))
	p.skipped++
	p.skippedB += end - start
}

// finish closes a selective decode: the index must list exactly the stream's
// sections and sit right behind them (a mismatch falls back to the full
// decode), and the lazy arena is attached when any section was skipped.
func (p *projection) finish(d *decoder, m *Merged) error {
	if p.indexed {
		if p.li != len(p.lens) {
			return fmt.Errorf("merge: section index lists %d entries, stream has %d", len(p.lens), p.li)
		}
		if rest := len(d.b) - d.off; rest != 0 {
			return fmt.Errorf("merge: %d stray bytes between entries and section index", rest)
		}
	}
	if lz := p.lz; len(lz.slots) > 0 {
		lz.filled = make([]atomic.Pointer[ctt.VData], len(lz.slots))
		m.lazy = lz
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
