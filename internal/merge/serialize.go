package merge

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/blockio"
	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/encpool"
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

// Encode writes the merged tree to w and returns the byte count. The bufio
// writer and CST staging buffer come from shared pools, so repeated encodes
// (per-cell artifact finishing in the bench harness) do not re-allocate 64KB
// of buffering each time.
func (m *Merged) Encode(out io.Writer) (int64, error) {
	return m.encode(out, nil)
}

// encode is the shared body of Encode and EncodeIndexed. When entryLens is
// non-nil, the byte length of each entry's VData section is appended to it in
// stream order — the raw material of the CYPI section index. A selectively
// decoded tree is materialized first: encoding visits every payload.
func (m *Merged) encode(out io.Writer, entryLens *[]uint64) (int64, error) {
	if m.lazy != nil {
		if err := m.Materialize(); err != nil {
			return 0, err
		}
	}
	sp := sink.Start(obs.StageEncode)
	defer sp.End()
	tsp := rec.Begin(ftrace.CatCodec, ftrace.NameEncode, 0)
	cw := &countingWriter{w: out}
	bw := encpool.GetBufio(cw)
	defer encpool.PutBufio(bw)
	w := &writer{w: bw}
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
	treeBuf := encpool.GetBuffer()
	defer encpool.PutBuffer(treeBuf)
	if err := m.Tree.Encode(treeBuf); err != nil {
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
	if sink.Enabled() {
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
// The gzip writer is pooled.
func (m *Merged) EncodeGzip(out io.Writer) (int64, error) {
	cw := &countingWriter{w: out}
	gz := encpool.GetGzip(cw)
	defer encpool.PutGzip(gz)
	if _, err := m.Encode(gz); err != nil {
		return 0, err
	}
	if err := gz.Close(); err != nil {
		return 0, err
	}
	if sink.Enabled() {
		sink.Inc(obs.EncGzipTraces)
		sink.Add(obs.EncBytesGzip, cw.n)
	}
	return cw.n, nil
}

// byteScanner is the decoder's input: the streaming paths hand it a pooled
// *bufio.Reader, the selective decoder an in-memory *bytes.Reader (which it
// can additionally Seek to skip unselected payload sections).
type byteScanner interface {
	io.Reader
	io.ByteReader
}

type reader struct {
	r   byteScanner
	err error
}

func (r *reader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	r.err = err
	return v
}

func (r *reader) i() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	r.err = err
	return v
}

func (r *reader) f() float64 { return math.Float64frombits(r.u()) }

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

func umin(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// decoder carries the varint reader plus the slab arenas the decoded tree is
// carved from. A merged trace is decoded into a handful of shared chunks —
// entries, rank sets, vertex payloads, records, int32 lists — instead of a
// few heap objects per entry, mirroring the slab economics of the merge's
// encode side. The scratch run buffer is reused across every run list in the
// file; callers consume it before the next read.
type decoder struct {
	reader
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
	if d.err != nil || n > 1<<20 {
		if d.err == nil {
			d.err = fmt.Errorf("merge: implausible run count %d", n)
		}
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
			d.err = fmt.Errorf("merge: malformed run count %d", out[i].Count)
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
			d.err = fmt.Errorf("merge: malformed set run stride %d", r.Stride)
			return nil
		}
		if i > 0 && r.First <= runs[i-1].Last() {
			d.err = fmt.Errorf("merge: set runs out of order at %d", i)
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

// Decode reads a merged tree written by Encode, EncodeGzip, or EncodeBlocked
// — the container layer (gzip member, CYPB block container, or none) is
// sniffed from the leading magic. The buffered reader is pooled and the
// result is slab-backed (see decoder), so decoding allocates a few chunks per
// tree rather than a few objects per entry.
func Decode(in io.Reader) (*Merged, error) {
	return DecodePar(in, 0)
}

// DecodePar is Decode with an explicit inflate worker count for CYPB inputs:
// workers < 0 inflates inline on the caller, 0 picks a default from
// GOMAXPROCS, and >= 1 pipelines that many workers so frame N+1 decompresses
// while the parser consumes frame N (see blockio.ReaderOptions). The worker
// count never changes the decoded tree; raw and gzip inputs ignore it.
func DecodePar(in io.Reader, workers int) (*Merged, error) {
	sp := sink.Start(obs.StageDecode)
	defer sp.End()
	tsp := rec.Begin(ftrace.CatCodec, ftrace.NameDecode, 0)
	if workers == 0 {
		workers = defaultIOWorkers()
	}
	br := encpool.GetBufioReader(in)
	defer encpool.PutBufioReader(br)
	sn, err := blockio.Sniff(br, workers)
	if err != nil {
		return nil, err
	}
	defer sn.Close()
	pbr := br
	if sn.Format != blockio.FormatRaw {
		// The unwrapped payload needs its own varint buffering.
		pbr = encpool.GetBufioReader(sn.R)
		defer encpool.PutBufioReader(pbr)
	}
	d := &decoder{reader: reader{r: pbr}}
	m, err := d.decode(nil)
	if err != nil {
		return nil, err
	}
	// A CYPB container's footer index must validate even when the payload
	// parser stopped at its own logical end; raw and gzip streams keep their
	// historical trailing-garbage tolerance.
	if err := sn.Finish(); err != nil {
		return nil, err
	}
	tsp.End(int64(len(m.Entries)), int64(m.EventCount))
	return m, nil
}

// decodeHeader parses the v1 header — magic through the embedded CST — from
// d's reader into a fresh Merged with its entry lists allocated, returning
// the stat mode implied by the histogram flag.
func (d *decoder) decodeHeader() (*Merged, timestat.Mode, error) {
	var magic [4]byte
	if _, err := io.ReadFull(d.r, magic[:]); err != nil {
		return nil, 0, fmt.Errorf("merge: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, 0, fmt.Errorf("merge: bad magic %q", magic)
	}
	if v := d.u(); v != fileVersion {
		if d.err != nil {
			return nil, 0, d.err
		}
		return nil, 0, fmt.Errorf("merge: unsupported version %d", v)
	}
	m := &Merged{}
	m.TreeHash = d.u()
	numRanks := d.u()
	m.EventCount = int64(d.u())
	hist := d.u() == 1
	mode := timestat.ModeMeanStddev
	if hist {
		mode = timestat.ModeHistogram
	}
	treeLen := d.u()
	if d.err != nil {
		return nil, 0, d.err
	}
	// Every consumer sizes per-rank state from the header (the streamer's
	// views, the simulator's cursors), so an implausible count stops here.
	if numRanks < 1 || numRanks > maxEntries {
		return nil, 0, fmt.Errorf("merge: implausible rank count %d", numRanks)
	}
	m.NumRanks = int(numRanks)
	if treeLen > 1<<28 {
		return nil, 0, fmt.Errorf("merge: implausible CST length %d", treeLen)
	}
	lr := io.LimitedReader{R: d.r, N: int64(treeLen)}
	tree, err := cst.Decode(&lr)
	if err != nil {
		return nil, 0, fmt.Errorf("merge: embedded CST: %w", err)
	}
	m.Tree = tree
	if got := tree.Hash(); got != m.TreeHash {
		return nil, 0, fmt.Errorf("merge: CST hash mismatch: header %x vs decoded %x", m.TreeHash, got)
	}
	m.Entries = make([][]Entry, tree.NumVertices())
	return m, mode, nil
}

// decode parses the bare CYPR stream from d's reader — the one loop that
// decodes vertex entry lists. With a nil projection every payload section is
// decoded in stream order (the full decode, from any reader). With a
// projection the reader is the in-memory body: p.section decodes the sections
// the selection touches and leaves the rest as lazy byte ranges.
func (d *decoder) decode(p *projection) (*Merged, error) {
	m, mode, err := d.decodeHeader()
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.lz.mode = mode
	}
	for gid := range m.Entries {
		n := d.u()
		if d.err != nil {
			return nil, fmt.Errorf("merge: vertex %d: %w", gid, d.err)
		}
		if n > maxEntries {
			return nil, fmt.Errorf("merge: vertex %d: implausible entry count %d", gid, n)
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
			b := umin(rem, decodeEager)
			chunk := d.entries(int(b))
			for k := range chunk {
				e := &chunk[k]
				e.Ranks.Load(d.setRuns())
				if p == nil {
					e.Data = d.vdata()
					d.decodeVData(e.Data, int32(gid), mode)
				} else if d.err == nil {
					p.section(d, e, int32(gid))
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
	if sink.Enabled() {
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
	if d.err != nil || nc > 1<<24 {
		if d.err == nil {
			d.err = fmt.Errorf("implausible cycle count %d", nc)
		}
		return
	}
	if nc > 0 {
		vd.Cycles = make([]ctt.Cycle, 0, umin(nc, decodeEager))
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
	if d.err != nil || n > 1<<26 {
		if d.err == nil {
			d.err = fmt.Errorf("implausible record count %d", n)
		}
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
		b := umin(rem, decodeEager)
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
	if d.err != nil || nq > 1<<20 {
		if d.err == nil {
			d.err = fmt.Errorf("implausible req count %d", nq)
		}
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
		if d.err != nil || np == 0 || np > 1<<20 {
			if d.err == nil {
				d.err = fmt.Errorf("implausible peer period %d", np)
			}
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
		if d.err != nil || nz > timestat.HistBuckets {
			if d.err == nil {
				d.err = fmt.Errorf("implausible histogram bucket count %d", nz)
			}
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
