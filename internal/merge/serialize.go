package merge

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/blockio"
	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/rankset"
	"repro/internal/stride"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// The merged compressed trace file is CYPRESS's final output (paper:
// "Compressed Communication Traces"). The format embeds the program CST
// (stored once per job) followed by varint-packed vertex data entries.
// EncodeGzip wraps the same stream in gzip, the paper's "Cypress+Gzip"
// variant.

var fileMagic = [4]byte{'C', 'Y', 'P', 'R'}

const fileVersion = 1

type writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	// n counts logical bytes emitted through the writer, independent of the
	// bufio layer's flush schedule, so Encode can attribute bytes to sections
	// for the obs per-section accounting.
	n   int64
	err error
}

func (w *writer) u(x uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], x)
	_, w.err = w.w.Write(w.buf[:n])
	w.n += int64(n)
}

func (w *writer) i(x int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.buf[:], x)
	_, w.err = w.w.Write(w.buf[:n])
	w.n += int64(n)
}

func (w *writer) f(x float64) { w.u(math.Float64bits(x)) }

func (w *writer) runs(rs []stride.Run) {
	w.u(uint64(len(rs)))
	for _, r := range rs {
		w.i(r.First)
		w.i(r.Stride)
		w.u(uint64(r.Count))
	}
}

// Encode writes the merged tree to w and returns the byte count.
func (m *Merged) Encode(out io.Writer) (int64, error) {
	return m.encode(out, nil)
}

// encode is the shared body of Encode and EncodeIndexed. When entryLens is
// non-nil, the byte length of each entry's VData section is appended to it in
// stream order — the raw material of the CYPI section index. A projected
// tree does not encode: encoding visits every payload.
func (m *Merged) encode(out io.Writer, entryLens *[]uint64) (int64, error) {
	if err := m.whole("encode"); err != nil {
		return 0, err
	}
	tsp := obs.AttachedRecorder().Begin(ftrace.CatCodec, ftrace.NameEncode, 0)
	cw := &countingWriter{w: out}
	w := &writer{w: bufio.NewWriter(cw)}
	if _, err := cw.Write(fileMagic[:]); err != nil {
		return 0, err
	}
	w.u(fileVersion)
	w.u(m.TreeHash)
	w.u(uint64(m.NumRanks))
	w.u(uint64(m.EventCount))
	hist := m.statMode() == timestat.ModeHistogram
	if hist {
		w.u(1)
	} else {
		w.u(0)
	}
	// Embed the CST text form, length-prefixed.
	var treeBuf bytes.Buffer
	if err := m.Tree.Encode(&treeBuf); err != nil {
		return 0, err
	}
	w.u(uint64(treeBuf.Len()))
	if w.err == nil {
		_, w.err = w.w.Write(treeBuf.Bytes())
		w.n += int64(treeBuf.Len())
	}
	preEntries := w.n
	for gid := range m.Entries {
		es := m.Entries[gid]
		w.u(uint64(len(es)))
		for _, e := range es {
			w.runs(e.Ranks.Runs())
			pre := w.n
			encodeVData(w, e.Data, hist)
			if entryLens != nil {
				*entryLens = append(*entryLens, uint64(w.n-pre))
			}
		}
	}
	if w.err != nil {
		return 0, w.err
	}
	if err := w.w.Flush(); err != nil {
		return 0, err
	}
	if sink := obs.Attached(); sink.Enabled() {
		sink.Inc(obs.EncTraces)
		sink.Add(obs.EncBytesRaw, cw.n)
		sink.Add(obs.EncBytesCST, int64(treeBuf.Len()))
		sink.Add(obs.EncBytesRecords, w.n-preEntries)
	}
	tsp.End(cw.n, int64(m.NumRanks))
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func encodeVData(w *writer, d *ctt.VData, hist bool) {
	w.runs(d.Counts.Runs())
	w.runs(d.Taken.Runs())
	w.u(uint64(len(d.Cycles)))
	for _, cy := range d.Cycles {
		w.u(uint64(cy.Start))
		w.u(uint64(cy.Len))
		w.u(uint64(cy.Reps))
	}
	w.u(uint64(len(d.Records)))
	for _, r := range d.Records {
		flags := uint64(0)
		if r.Ev.Wildcard {
			flags |= 1
		}
		if r.RelEncoded {
			flags |= 2
		}
		if r.Peers != nil {
			flags |= 4
		}
		w.u(uint64(r.Ev.Op))
		w.u(flags)
		w.u(uint64(r.Ev.Size))
		w.i(int64(r.Ev.Peer))
		w.i(int64(r.PeerRel))
		w.u(uint64(r.Ev.Tag))
		w.u(uint64(r.Ev.Comm))
		w.u(uint64(r.Count))
		w.u(uint64(len(r.Ev.Reqs)))
		for _, q := range r.Ev.Reqs {
			w.i(int64(q))
		}
		if r.Peers != nil {
			w.u(uint64(len(r.Peers.Period)))
			for _, off := range r.Peers.Period {
				w.i(int64(off))
			}
		}
		// Time statistics: moments always, histogram buckets when present.
		w.u(uint64(r.Time.N))
		w.f(r.Time.Mean)
		w.f(r.Time.Stddev())
		w.f(r.Time.Min)
		w.f(r.Time.Max)
		w.f(r.Compute.Mean)
		if hist {
			nz := 0
			for _, h := range r.Time.Hist {
				if h != 0 {
					nz++
				}
			}
			w.u(uint64(nz))
			for i, h := range r.Time.Hist {
				if h != 0 {
					w.u(uint64(i))
					w.u(uint64(h))
				}
			}
		}
	}
}

// EncodeGzip writes the gzip-compressed form and returns the byte count.
func (m *Merged) EncodeGzip(out io.Writer) (int64, error) {
	cw := &countingWriter{w: out}
	gz := gzip.NewWriter(cw)
	if _, err := m.Encode(gz); err != nil {
		return 0, err
	}
	if err := gz.Close(); err != nil {
		return 0, err
	}
	if sink := obs.Attached(); sink.Enabled() {
		sink.Inc(obs.EncGzipTraces)
		sink.Add(obs.EncBytesGzip, cw.n)
	}
	return cw.n, nil
}

// bcur is the read side's one input: an error-latching varint cursor over an
// encoding held in memory. Its position is off, a skip is an assignment to
// off, and every error it raises names the byte offset it stopped at. The
// decoder embeds it; the selective decoder's skip walk, the plan walk under
// SplitEncoded and PlanStructure, and the delta codec drive it directly.
type bcur struct {
	b   []byte
	off int
	err error
}

func (c *bcur) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *bcur) u() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("merge: truncated or oversized uvarint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *bcur) i() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("merge: truncated or oversized varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *bcur) f() float64 { return math.Float64frombits(c.u()) }

// decodeChunk is the allocation granularity of the decoder's slabs.
const decodeChunk = 64

// decodeEager caps how many list elements the decoder allocates before any of
// them has decoded successfully. Element counts in the file are untrusted: a
// few bytes can declare 2^26 records (~19GB of CommRecord storage), so lists
// above this size are decoded in batches that each earn their allocation by
// parsing, turning a tiny malicious input into a fast error instead of an
// allocation storm. Well-formed lists below the cap take the exact-size path.
const decodeEager = 4096

// maxEntries caps the entry count one vertex may declare and, because an
// entry list partitions the ranks, the rank count a header may declare.
const maxEntries = 1 << 24

// decoder carries the varint cursor plus the slab arenas the decoded tree is
// carved from. A merged trace is decoded into a handful of shared chunks —
// entries, rank sets, vertex payloads, records, int32 lists — instead of a
// few heap objects per entry, mirroring the slab economics of the merge's
// encode side. The scratch run buffer is reused across every run list in the
// file; callers consume it before the next read.
type decoder struct {
	bcur
	runsBuf []stride.Run
	entSlab []Entry
	setSlab []rankset.Set
	vdSlab  []ctt.VData
	i32Slab []int32
	arena   ctt.RecordArena

	// Observation tallies, flushed to the sink once per Decode.
	nEnt int64
	nRec int64
}

// runs reads a run list into the shared scratch buffer. The result is valid
// until the next call.
func (d *decoder) runs() []stride.Run {
	n := d.u()
	if n > 1<<20 {
		d.fail("merge: implausible run count %d at offset %d", n, d.off)
	}
	if d.err != nil {
		return nil
	}
	if uint64(cap(d.runsBuf)) < n {
		d.runsBuf = make([]stride.Run, n)
	}
	out := d.runsBuf[:n]
	for i := range out {
		out[i].First = d.i()
		out[i].Stride = d.i()
		out[i].Count = int64(d.u())
		if d.err != nil {
			return nil
		}
		if out[i].Count < 1 {
			d.fail("merge: malformed run count %d at offset %d", out[i].Count, d.off)
			return nil
		}
	}
	return out
}

// setRuns reads a run list that must form a valid strictly-increasing set:
// positive strides (a multi-element run with stride 0 would divide by zero in
// Set.Contains — fuzz-found) and disjoint runs in increasing order, the
// invariants the binary search over decoded Taken and rank sets relies on.
func (d *decoder) setRuns() []stride.Run {
	runs := d.runs()
	if d.err != nil {
		return nil
	}
	for i := range runs {
		r := runs[i]
		if r.Count > 1 && r.Stride < 1 {
			d.fail("merge: malformed set run stride %d at offset %d", r.Stride, d.off)
			return nil
		}
		if i > 0 && r.First <= runs[i-1].Last() {
			d.fail("merge: set runs out of order at run %d, offset %d", i, d.off)
			return nil
		}
	}
	return runs
}

// entries carves a length-n entry list out of the entry slab.
func (d *decoder) entries(n int) []Entry {
	if len(d.entSlab) < n {
		size := decodeChunk
		if n > size {
			size = n
		}
		d.entSlab = make([]Entry, size)
		d.setSlab = make([]rankset.Set, size)
	}
	out := d.entSlab[:n:n]
	d.entSlab = d.entSlab[n:]
	for k := range out {
		out[k].Ranks = &d.setSlab[k]
	}
	d.setSlab = d.setSlab[n:]
	return out
}

// vdata carves one vertex payload out of the payload slab.
func (d *decoder) vdata() *ctt.VData {
	if len(d.vdSlab) == 0 {
		d.vdSlab = make([]ctt.VData, decodeChunk)
	}
	v := &d.vdSlab[0]
	d.vdSlab = d.vdSlab[1:]
	return v
}

// ints carves a length-n int32 list (request lists, peer periods) out of the
// shared int32 slab.
func (d *decoder) ints(n int) []int32 {
	if len(d.i32Slab) < n {
		size := 4 * decodeChunk
		if n > size {
			size = n
		}
		d.i32Slab = make([]int32, size)
	}
	out := d.i32Slab[:n:n]
	d.i32Slab = d.i32Slab[n:]
	return out
}

// Decode reads a merged tree written by any encoder — the container layer
// (gzip member, CYPB block container, or none) is sniffed from the leading
// magic — and decodes every payload. The input is read to the end first: a
// trace is a []byte, and this is DecodeSelectAuto's full decode for callers
// that hold a stream. The result is slab-backed (see decoder), so decoding
// allocates a few chunks per tree rather than a few objects per entry.
func Decode(in io.Reader) (*Merged, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("merge: reading trace: %w", err)
	}
	payload, _, err := blockio.Unwrap(data)
	if err != nil {
		return nil, err
	}
	return decodePayload(payload, nil)
}

// header is the fixed v1 prefix of an encoding, magic through the embedded
// CST.
type header struct {
	treeHash uint64
	numRanks int
	events   int64
	hist     bool
	tree     *cst.Tree // nil unless asked for
}

// header parses the v1 prefix and leaves the cursor on the first vertex
// section. It is the one header parser: the decoder and SplitEncoded ask for
// the tree, PlanStructure (whose structure stream opens with the same bytes)
// only needs the flags and the cursor advanced past the CST. Failures latch
// in c.err.
func (c *bcur) header(wantTree bool) (h header) {
	if len(c.b) < len(fileMagic) || [4]byte(c.b[:4]) != fileMagic {
		c.fail("merge: bad magic %q", c.b[:min(len(c.b), len(fileMagic))])
		return h
	}
	c.off = len(fileMagic)
	if v := c.u(); c.err == nil && v != fileVersion {
		c.fail("merge: unsupported version %d", v)
	}
	h.treeHash = c.u()
	numRanks := c.u()
	h.events = int64(c.u())
	h.hist = c.u() == 1
	treeLen := c.u()
	if c.err != nil {
		return h
	}
	// Every consumer sizes per-rank state from the header (the streamer's
	// views, the simulator's cursors), so an implausible count stops here.
	if numRanks < 1 || numRanks > maxEntries {
		c.fail("merge: implausible rank count %d", numRanks)
		return h
	}
	h.numRanks = int(numRanks)
	if treeLen > 1<<28 {
		c.fail("merge: implausible CST length %d", treeLen)
		return h
	}
	if treeLen > uint64(len(c.b)-c.off) {
		c.fail("merge: embedded CST of %d bytes at offset %d runs past the end of the input", treeLen, c.off)
		return h
	}
	treeEnd := c.off + int(treeLen)
	if wantTree {
		// The vertex sections start at the declared CST boundary, and
		// cst.Decode refuses bytes after its last vertex, so a CST that stops
		// short of the boundary is an error.
		tree, err := cst.Decode(c.b[c.off:treeEnd])
		if err != nil {
			c.fail("merge: embedded CST at offset %d: %w", c.off, err)
			return h
		}
		if got := tree.Hash(); got != h.treeHash {
			c.fail("merge: CST hash mismatch: header %x vs decoded %x", h.treeHash, got)
			return h
		}
		h.tree = tree
	}
	c.off = treeEnd
	return h
}

// decodePayload decodes a bare CYPR encoding (container already unwrapped).
// With p nil every payload section is decoded in stream order and bytes
// after the last vertex section are tolerated (the CYPI sidecar rides there).
// With a projection, payload is its body (the encoding less any sidecar): the
// sections the selection touches decode and the rest are passed over.
func decodePayload(payload []byte, p *projection) (*Merged, error) {
	name := ftrace.NameDecode
	if p != nil {
		name = ftrace.NameDecodeSelect
	}
	tsp := obs.AttachedRecorder().Begin(ftrace.CatCodec, name, 0)
	d := &decoder{bcur: bcur{b: payload}}
	m, err := d.decode(p)
	if err != nil {
		return nil, err
	}
	if p == nil {
		tsp.End(int64(len(m.Entries)), m.EventCount)
		return m, nil
	}
	if err := p.finish(d); err != nil {
		return nil, err
	}
	tsp.End(p.eager, p.skippedB)
	return m, nil
}

// decode parses the bare CYPR stream under d's cursor — the one loop that
// decodes vertex entry lists. With a nil projection every payload section is
// decoded in stream order; with one, p.section decodes the sections the
// selection touches and passes over the rest.
func (d *decoder) decode(p *projection) (*Merged, error) {
	h := d.header(true)
	if d.err != nil {
		return nil, d.err
	}
	m := &Merged{
		TreeHash: h.treeHash, NumRanks: h.numRanks, EventCount: h.events,
		Tree: h.tree, Entries: make([][]Entry, h.tree.NumVertices()),
	}
	mode := timestat.ModeMeanStddev
	if h.hist {
		mode = timestat.ModeHistogram
	}
	for gid := range m.Entries {
		n := d.u()
		if d.err != nil {
			return nil, fmt.Errorf("merge: vertex %d: %w", gid, d.err)
		}
		if n > maxEntries {
			return nil, fmt.Errorf("merge: vertex %d: implausible entry count %d at offset %d", gid, n, d.off)
		}
		if n == 0 {
			continue
		}
		// Lists up to decodeEager carve an exact-length block; larger declared
		// counts earn their storage batch by batch (see decodeEager).
		var es []Entry
		if n > decodeEager {
			es = make([]Entry, 0, decodeEager)
		}
		decoded := 0
		for rem := n; rem > 0; {
			b := min(rem, decodeEager)
			chunk := d.entries(int(b))
			for k := range chunk {
				e := &chunk[k]
				e.Ranks.Load(d.setRuns())
				if p == nil {
					e.Data = d.vdata()
					d.decodeVData(e.Data, int32(gid), mode)
				} else if d.err == nil {
					p.section(d, e, int32(gid), mode)
				}
				if d.err != nil {
					return nil, fmt.Errorf("merge: vertex %d entry %d: %w", gid, decoded+k, d.err)
				}
			}
			if es == nil {
				es = chunk
			} else {
				es = append(es, chunk...)
			}
			decoded += int(b)
			rem -= b
		}
		m.Entries[gid] = es
		d.nEnt += int64(n)
	}
	if sink := obs.Attached(); sink.Enabled() {
		sink.Inc(obs.DecTraces)
		sink.Add(obs.DecEntries, d.nEnt)
		sink.Add(obs.DecRecords, d.nRec)
	}
	return m, nil
}

// decodeVData decodes one payload section of vertex gid. The GID is not on
// the wire — a record's call site is the vertex it is stored under — so every
// decode path passes it down and record restores Ev.GID from it.
func (d *decoder) decodeVData(vd *ctt.VData, gid int32, mode timestat.Mode) {
	for _, run := range d.runs() {
		vd.Counts.AppendRun(run)
	}
	for _, run := range d.setRuns() {
		vd.Taken.AppendRun(run)
	}
	nc := d.u()
	if nc > 1<<24 {
		d.fail("implausible cycle count %d at offset %d", nc, d.off)
	}
	if d.err != nil {
		return
	}
	if nc > 0 {
		vd.Cycles = make([]ctt.Cycle, 0, min(nc, decodeEager))
		for j := uint64(0); j < nc; j++ {
			cy := ctt.Cycle{
				Start: int32(d.u()), Len: int32(d.u()), Reps: int64(d.u()),
			}
			if d.err != nil {
				return
			}
			vd.Cycles = append(vd.Cycles, cy)
		}
	}
	n := d.u()
	if n > 1<<26 {
		d.fail("implausible record count %d at offset %d", n, d.off)
	}
	if d.err != nil {
		return
	}
	d.nRec += int64(n)
	// Records decode into the decoder's shared arena: each vertex's record
	// count is known up front, so the arena carves exact-length pointer lists
	// backed by chunked record storage. Counts above decodeEager are earned
	// batch by batch like entry lists.
	if n > decodeEager {
		vd.Records = make([]*ctt.CommRecord, 0, decodeEager)
	}
	for rem := n; rem > 0; {
		b := min(rem, decodeEager)
		chunk := d.arena.Alloc(int(b))
		for _, rec := range chunk {
			d.record(rec, gid, mode)
			if d.err != nil {
				return
			}
		}
		if vd.Records == nil {
			vd.Records = chunk
		} else {
			vd.Records = append(vd.Records, chunk...)
		}
		rem -= b
	}
}

// record decodes one comm record of vertex gid in place.
func (d *decoder) record(rec *ctt.CommRecord, gid int32, mode timestat.Mode) {
	rec.Ev.GID = gid
	rec.Ev.Op = trace.Op(d.u())
	flags := d.u()
	rec.Ev.Wildcard = flags&1 != 0
	rec.RelEncoded = flags&2 != 0
	hasPeers := flags&4 != 0
	rec.Ev.Size = int(d.u())
	rec.Ev.Peer = int(d.i())
	rec.PeerRel = int(d.i())
	rec.Ev.Tag = int(d.u())
	rec.Ev.Comm = int(d.u())
	rec.Count = int64(d.u())
	rec.Ev.ReqID = -1
	nq := d.u()
	if nq > 1<<20 {
		d.fail("implausible req count %d at offset %d", nq, d.off)
	}
	if d.err != nil {
		return
	}
	if nq > 0 {
		rec.Ev.Reqs = d.ints(int(nq))
		for j := range rec.Ev.Reqs {
			rec.Ev.Reqs[j] = int32(d.i())
		}
	}
	if hasPeers {
		np := d.u()
		if np == 0 || np > 1<<20 {
			d.fail("implausible peer period %d at offset %d", np, d.off)
		}
		if d.err != nil {
			return
		}
		period := d.ints(int(np))
		for j := range period {
			period[j] = int32(d.i())
		}
		rec.Peers = &ctt.PeerPattern{Period: period}
	}
	st := timestat.Make(mode)
	st.N = int64(d.u())
	st.Mean = d.f()
	_ = d.f() // stddev is recomputable only approximately; keep mean/min/max
	st.Min = d.f()
	st.Max = d.f()
	rec.Compute = timestat.MeanSeeded(d.f(), st.N)
	if mode == timestat.ModeHistogram {
		nz := d.u()
		if nz > timestat.HistBuckets {
			d.fail("implausible histogram bucket count %d at offset %d", nz, d.off)
		}
		if d.err != nil {
			return
		}
		for j := uint64(0); j < nz; j++ {
			idx := d.u()
			cnt := d.u()
			if idx < timestat.HistBuckets {
				st.Hist[idx] = uint32(cnt)
			}
		}
	}
	rec.Time = st
}
