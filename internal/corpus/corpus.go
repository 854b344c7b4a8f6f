// Package corpus is the content-addressed trace store behind the fleet
// serving path: many runs of the same program share one stored copy of their
// communication structure, and each run costs only its dynamic residue.
//
// Ingest splits a standalone v1 encoding into its structure and payload
// streams (merge.SplitEncoded), keys the structure by the structural class
// key (a fingerprint fold over the header and every per-vertex structure
// section), and stores the first run of a class as the class representative.
// Every later run of the class stores only merge.DeltaPayload against the
// representative payload — typically a few bytes per volatile field. Byte
// identity is unconditional: ingest re-derives the standalone encoding from
// what it is about to store (the same merge.Plan.Reassemble every read runs)
// and falls back to storing the full encoding verbatim whenever the
// reconstruction is not byte-identical (odd producers, non-minimal varints,
// fingerprint collisions).
//
// The structure of a class is walked once, when the class enters memory
// (ingest of its first run, or Open): the walk leaves a merge.Plan, and every
// read of every run of the class reassembles along it without parsing the
// structure again. The representative payload is decoded at the same moment
// into a merge.Ref, so a read copies every word the run left unchanged.
//
// On-disk layout (all inside one directory):
//
//	class-<key>.cyps  "CYPS" u1 | classKey | structLen | repLen | CYPB(structure ++ repPayload)
//	seg-<n>.cypd      "CYPD" u1 | CYPB(record*)
//	active.cypl       "CYPA" u1 | record*
//
// where each run record is
//
//	u total | contentHash(8B LE) | u flags | u classKey | u fullLen |
//	u bodyLen | body | crc32(8B-hash .. body, IEEE, 4B LE)
//
// New runs append to the raw active log; Close (and GC) seal the log into a
// deflate-framed CYPB segment. Deletion appends a tombstone record; GC
// compacts every segment, dropping tombstoned runs and unreferenced classes.
//
// The read side is Get: a size-bounded, ref-counted LRU of decoded traces
// (see Cache) fronts reconstruction, so repeated PredictPar/CommMatrixPar/replay
// on a hot trace skip the reassembly and the decode entirely.
package corpus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/blockio"
	"repro/internal/fp"
	"repro/internal/merge"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
)

// File magics. The class/segment/log formats are versioned independently of
// the trace encoding they carry.
var (
	classMagic = [4]byte{'C', 'Y', 'P', 'S'}
	segMagic   = [4]byte{'C', 'Y', 'P', 'D'}
	logMagic   = [4]byte{'C', 'Y', 'P', 'A'}
)

const (
	formatVersion = 1
	segHeaderLen  = 5 // segment and active log file header: magic, version

	flagDelta     = 1 // body is DeltaPayload against the class representative
	flagFull      = 2 // body is the complete standalone encoding
	flagTombstone = 4 // run deleted; no body

	// maxRecordLen bounds one run record; anything larger is corruption.
	maxRecordLen = 1 << 30
)

// ContentHash is the content address of one ingested trace: a fingerprint
// fold over its exact standalone v1 encoding bytes.
func ContentHash(enc []byte) uint64 { return uint64(fp.New().Bytes(enc)) }

// Options configures an opened store.
type Options struct {
	// CacheBytes bounds the decoded-trace cache by the summed standalone
	// encoding size of resident traces; 0 means 64 MiB, negative disables
	// the cache.
	CacheBytes int64
	// Workers bounds the deflate workers that write class and segment
	// containers; values <= 1 deflate inline. Reads always inflate inline.
	Workers int
}

// class is one structural equivalence class resident in memory: the read
// plan of its structure stream (which holds the stream and the class key) and
// the decoded representative payload every run of the class is a delta
// against.
type class struct {
	plan *merge.Plan
	ref  *merge.Ref
}

// runLoc locates one live run record. Records in sealed segments are
// addressed by offset into the segment's uncompressed payload; records still
// in the active log by file offset.
type runLoc struct {
	seg     int // -1 = active log
	off     int64
	rawLen  int // the whole record, length prefix to crc
	flags   uint64
	classK  uint64
	fullLen int
	bodyLen int
}

// locate is the location of r, whose raw bytes sit at off in seg.
func (r *record) locate(seg int, off int64) runLoc {
	return runLoc{
		seg: seg, off: off, rawLen: len(r.raw), flags: r.flags, classK: r.classK,
		fullLen: r.fullLen, bodyLen: len(r.body),
	}
}

// Store is an open corpus directory. All methods are safe for concurrent
// use.
//
// Reads cost what they return: a sealed segment is a CYPB container cut
// between records (writeSegment) whose frame table the store keeps from Open,
// so a cold get reads and inflates the frames of its own record and no other
// (all of a segment's, where an older binary sealed it in one frame). Damage
// reaches as far: Open checks every frame and record and refuses the store if
// one fails; a frame that goes bad under an open store fails every get of the
// record it holds — an error, never wrong bytes: frame header, length, CRC-32,
// record CRC and content hash stand in the way — and no get of any other.
type Store struct {
	dir string
	opt Options

	mu      sync.RWMutex
	classes map[uint64]*class
	index   map[uint64]runLoc
	segs    []int                  // sealed segment numbers, ascending
	frames  map[int]*blockio.Index // each sealed segment's frame table
	nextSeg int

	activeF   *os.File
	activeOff int64

	// aggregate byte accounting for Stats (live runs only)
	logicalBytes int64
	storedBytes  int64
	deltaRuns    int64
	fullRuns     int64

	cache  *Cache
	closed bool
}

// Open opens (creating if needed) the corpus directory and loads its index.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: open: %w", err)
	}
	cacheBytes := opt.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = 64 << 20
	}
	s := &Store{
		dir:     dir,
		opt:     opt,
		classes: make(map[uint64]*class),
		index:   make(map[uint64]runLoc),
		frames:  make(map[int]*blockio.Index),
		cache:   NewCache(cacheBytes),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) classPath(key uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("class-%016x.cyps", key))
}

func (s *Store) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.cypd", n))
}

func (s *Store) logPath() string { return filepath.Join(s.dir, "active.cypl") }

// load scans class files, sealed segments (numeric order), and the active
// log, rebuilding the in-memory index. Tombstones drop earlier entries.
func (s *Store) load() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("corpus: open: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "class-") && strings.HasSuffix(name, ".cyps"):
			c, err := readClassFile(filepath.Join(s.dir, name))
			if err != nil {
				return fmt.Errorf("corpus: %s: %w", name, err)
			}
			s.classes[c.plan.ClassKey()] = c
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".cypd"):
			var n int
			if _, err := fmt.Sscanf(name, "seg-%d.cypd", &n); err != nil {
				return fmt.Errorf("corpus: segment name %q: %w", name, err)
			}
			s.segs = append(s.segs, n)
			if n >= s.nextSeg {
				s.nextSeg = n + 1
			}
		}
	}
	sort.Ints(s.segs)
	for _, n := range s.segs {
		payload, err := s.readSegment(n)
		if err != nil {
			return err
		}
		if err := s.indexRecords(payload, n, 0); err != nil {
			return fmt.Errorf("corpus: seg-%06d.cypd: %w", n, err)
		}
	}
	return s.openActive()
}

// openActive opens (creating if absent) the active log, verifies its header,
// and indexes its records.
func (s *Store) openActive() error {
	f, err := os.OpenFile(s.logPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("corpus: active log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("corpus: active log: %w", err)
	}
	if st.Size() == 0 {
		hdr := append(append([]byte{}, logMagic[:]...), formatVersion)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return fmt.Errorf("corpus: active log: %w", err)
		}
		s.activeF, s.activeOff = f, int64(len(hdr))
		return nil
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("corpus: active log: %w", err)
	}
	if len(raw) < 5 || !bytes.Equal(raw[:4], logMagic[:]) || raw[4] != formatVersion {
		f.Close()
		return errors.New("corpus: active log: bad header")
	}
	if err := s.indexRecords(raw[5:], -1, 5); err != nil {
		f.Close()
		return fmt.Errorf("corpus: active log: %w", err)
	}
	s.activeF, s.activeOff = f, int64(len(raw))
	return nil
}

// record is one parsed run record.
type record struct {
	hash    uint64
	flags   uint64
	classK  uint64
	fullLen int
	body    []byte
	raw     []byte // complete record bytes including length prefix and crc
}

// parseRecord decodes one record at the head of b, returning it and the
// remaining bytes.
func parseRecord(b []byte) (record, []byte, error) {
	var r record
	total, n := binary.Uvarint(b)
	if n <= 0 || total > maxRecordLen || uint64(len(b)-n) < total {
		return r, nil, errors.New("truncated record")
	}
	r.raw = b[:n+int(total)]
	rest := b[n+int(total):]
	body := b[n : n+int(total)]
	if len(body) < 12 { // hash + crc at minimum
		return r, nil, errors.New("short record")
	}
	crcWant := binary.LittleEndian.Uint32(body[len(body)-4:])
	hashed := body[:len(body)-4]
	if crc32.ChecksumIEEE(hashed) != crcWant {
		return r, nil, errors.New("record crc mismatch")
	}
	r.hash = binary.LittleEndian.Uint64(hashed[:8])
	c := hashed[8:]
	var k int
	if r.flags, k = binary.Uvarint(c); k <= 0 {
		return r, nil, errors.New("bad record flags")
	}
	c = c[k:]
	if r.classK, k = binary.Uvarint(c); k <= 0 {
		return r, nil, errors.New("bad record class key")
	}
	c = c[k:]
	fl, k := binary.Uvarint(c)
	if k <= 0 || fl > maxRecordLen {
		return r, nil, errors.New("bad record full length")
	}
	r.fullLen = int(fl)
	c = c[k:]
	bl, k := binary.Uvarint(c)
	if k <= 0 || uint64(len(c)-k) != bl {
		return r, nil, errors.New("bad record body length")
	}
	r.body = c[k : k+int(bl)]
	return r, rest, nil
}

// appendRecord serializes a record (without filling raw).
func appendRecord(dst []byte, r record) []byte {
	var inner []byte
	inner = binary.LittleEndian.AppendUint64(inner, r.hash)
	inner = binary.AppendUvarint(inner, r.flags)
	inner = binary.AppendUvarint(inner, r.classK)
	inner = binary.AppendUvarint(inner, uint64(r.fullLen))
	inner = binary.AppendUvarint(inner, uint64(len(r.body)))
	inner = append(inner, r.body...)
	inner = binary.LittleEndian.AppendUint32(inner, crc32.ChecksumIEEE(inner))
	dst = binary.AppendUvarint(dst, uint64(len(inner)))
	return append(dst, inner...)
}

// indexRecords walks a concatenated record stream, applying each record to
// the index. seg is the segment number (-1 = active log); base is the byte
// offset of the stream's first record within its file or segment payload.
func (s *Store) indexRecords(b []byte, seg int, base int64) error {
	off := base
	for len(b) > 0 {
		r, rest, err := parseRecord(b)
		if err != nil {
			return err
		}
		if r.flags&flagTombstone != 0 {
			s.dropAccounting(s.index[r.hash])
			delete(s.index, r.hash)
		} else {
			if old, ok := s.index[r.hash]; ok {
				s.dropAccounting(old)
			}
			loc := r.locate(seg, off)
			s.index[r.hash] = loc
			s.addAccounting(loc)
		}
		off += int64(len(r.raw))
		b = rest
	}
	return nil
}

func (s *Store) addAccounting(loc runLoc) {
	s.logicalBytes += int64(loc.fullLen)
	s.storedBytes += int64(loc.bodyLen)
	if loc.flags&flagDelta != 0 {
		s.deltaRuns++
	} else {
		s.fullRuns++
	}
}

func (s *Store) dropAccounting(loc runLoc) {
	if loc == (runLoc{}) {
		return
	}
	s.logicalBytes -= int64(loc.fullLen)
	s.storedBytes -= int64(loc.bodyLen)
	if loc.flags&flagDelta != 0 {
		s.deltaRuns--
	} else {
		s.fullRuns--
	}
}

// readClassFile loads and validates one class file. The CYPB frames guard the
// streams; the declared key sits outside them, and what guards it is the walk
// that builds the class's plan: the structure must walk to its last byte and
// fold to the key the file declares. The representative must decode as a
// uvarint vector.
func readClassFile(path string) (*class, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 5 || !bytes.Equal(raw[:4], classMagic[:]) || raw[4] != formatVersion {
		return nil, errors.New("bad class header")
	}
	b := raw[5:]
	var vals [3]uint64
	for i := range vals {
		v, n := binary.Uvarint(b)
		if n <= 0 || (i > 0 && v > maxRecordLen) {
			return nil, errors.New("bad class header field")
		}
		vals[i], b = v, b[n:]
	}
	payload, _, err := unblock(b)
	if err != nil {
		return nil, fmt.Errorf("class container: %w", err)
	}
	structLen, repLen := int(vals[1]), int(vals[2])
	if structLen+repLen != len(payload) {
		return nil, errors.New("class payload length mismatch")
	}
	plan, err := merge.PlanStructure(payload[:structLen])
	if err != nil {
		return nil, err
	}
	if plan.ClassKey() != vals[0] {
		return nil, errors.New("class key does not match stored structure")
	}
	ref, err := merge.NewRef(payload[structLen:])
	if err != nil {
		return nil, err
	}
	return &class{plan: plan, ref: ref}, nil
}

// writeClassFile persists a new class with its representative payload.
func (s *Store) writeClassFile(c *class, repPayload []byte) error {
	var buf bytes.Buffer
	buf.Write(classMagic[:])
	buf.WriteByte(formatVersion)
	var tmp [binary.MaxVarintLen64]byte
	structure := c.plan.Structure()
	for _, v := range []uint64{c.plan.ClassKey(), uint64(len(structure)), uint64(len(repPayload))} {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	w, err := blockio.NewWriter(&buf, blockio.WriterOptions{Workers: s.opt.Workers})
	if err != nil {
		return err
	}
	if _, err := w.Write(structure); err != nil {
		return err
	}
	if _, err := w.Write(repPayload); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return os.WriteFile(s.classPath(c.plan.ClassKey()), buf.Bytes(), 0o644)
}

// readSegment reads one sealed segment whole, every frame checked, and keeps
// its frame table for the reads that want one record of it (readSealed).
func (s *Store) readSegment(n int) ([]byte, error) {
	raw, err := os.ReadFile(s.segPath(n))
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if len(raw) < segHeaderLen || !bytes.Equal(raw[:4], segMagic[:]) || raw[4] != formatVersion {
		return nil, fmt.Errorf("corpus: seg-%06d.cypd: bad header", n)
	}
	payload, idx, err := unblock(raw[segHeaderLen:])
	if err != nil {
		return nil, fmt.Errorf("corpus: seg-%06d.cypd: %w", n, err)
	}
	s.frames[n] = idx
	return payload, nil
}

// readSealed reads the rawLen bytes at off of sealed segment n's record
// stream by inflating only the frames that cover them.
func (s *Store) readSealed(n int, off int64, rawLen int) ([]byte, error) {
	f, err := os.Open(s.segPath(n))
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	p, at, err := s.frames[n].ReadRange(io.NewSectionReader(f, segHeaderLen, 1<<62), int(off), rawLen)
	if err != nil {
		return nil, fmt.Errorf("corpus: seg-%06d.cypd: %w", n, err)
	}
	obs.Attached().Add(obs.CorpusSegInflated, int64(len(p)))
	return p[int(off)-at:][:rawLen], nil
}

// unblock inflates the CYPB container a class or segment file carries after
// its own header — Scan refuses any other layer — and returns its frame table.
func unblock(b []byte) ([]byte, *blockio.Index, error) {
	idx, err := blockio.Scan(b)
	if err != nil {
		return nil, nil, err
	}
	payload, _, err := blockio.Unwrap(b)
	return payload, idx, err
}

// Ingest adds a merged trace, storing it against its structural class, and
// returns its content hash. Ingesting a trace whose standalone encoding is
// already present is a no-op returning the existing hash.
func (s *Store) Ingest(m *merge.Merged) (uint64, error) {
	var buf bytes.Buffer
	if _, err := m.Encode(&buf); err != nil {
		return 0, fmt.Errorf("corpus: ingest: %w", err)
	}
	return s.IngestBytes(buf.Bytes())
}

// IngestBytes adds a trace given its standalone v1 encoding. The bytes are
// the unit of identity: Get and GetBytes reproduce them exactly.
func (s *Store) IngestBytes(enc []byte) (uint64, error) {
	sink := obs.Attached()
	sink.Inc(obs.CorpusIngests)
	tsp := obs.AttachedRecorder().Begin(ftrace.CatCorpus, ftrace.NameIngest, 0)
	h := ContentHash(enc)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("corpus: store is closed")
	}
	if _, ok := s.index[h]; ok {
		sink.Inc(obs.CorpusDuplicates)
		tsp.End(int64(len(enc)), ftrace.IngestDup)
		return h, nil
	}

	rec := record{hash: h, flags: flagFull, fullLen: len(enc), body: enc}
	if sp, err := merge.SplitEncoded(enc); err == nil {
		key := sp.ClassKey()
		c, ok := s.classes[key]
		switch {
		case ok && bytes.Equal(c.plan.Structure(), sp.Structure):
			// Established class: store the payload residue.
			if d, err := merge.DeltaPayload(sp.Payload, c.ref); err == nil &&
				s.verifyDelta(c, d, enc) {
				rec = record{hash: h, flags: flagDelta, classK: key, fullLen: len(enc), body: d}
			}
		case !ok:
			// First run of its class: the class file carries the structure and
			// this payload as representative; the run itself is a self-delta.
			ref, err := merge.NewRef(sp.Payload)
			if err != nil {
				break
			}
			c = &class{plan: sp.Plan, ref: ref}
			if d, err := merge.DeltaPayload(sp.Payload, c.ref); err == nil &&
				s.verifyDelta(c, d, enc) {
				if err := s.writeClassFile(c, sp.Payload); err != nil {
					return 0, fmt.Errorf("corpus: ingest: %w", err)
				}
				s.classes[key] = c
				sink.Inc(obs.CorpusClasses)
				rec = record{hash: h, flags: flagDelta, classK: key, fullLen: len(enc), body: d}
			}
			// ok && structure differs: a 64-bit class-key collision between
			// different structures — fall through and store the run in full.
		}
	}

	loc, err := s.appendActive(rec)
	if err != nil {
		return 0, fmt.Errorf("corpus: ingest: %w", err)
	}
	s.index[h] = loc
	s.addAccounting(loc)
	mode := int64(ftrace.IngestFull)
	if rec.flags&flagDelta != 0 {
		sink.Inc(obs.CorpusDeltaRuns)
		mode = ftrace.IngestDelta
	} else {
		sink.Inc(obs.CorpusFullRuns)
	}
	tsp.End(int64(len(enc)), mode)
	sink.Add(obs.CorpusLogicalBytes, int64(len(enc)))
	sink.Add(obs.CorpusStoredBytes, int64(len(rec.body)))
	if len(enc) > 0 {
		sink.Observe(obs.HistCorpusDeltaPermille, int64(len(rec.body))*1000/int64(len(enc)))
	}
	return h, nil
}

// verifyDelta proves byte identity before committing to delta storage: the
// exact reconstruction path of Get must reproduce enc.
func (s *Store) verifyDelta(c *class, delta, enc []byte) bool {
	j, err := c.plan.Reassemble(c.ref, delta, len(enc))
	return err == nil && bytes.Equal(j.Enc, enc)
}

// appendActive writes one record to the active log and returns its location.
func (s *Store) appendActive(rec record) (runLoc, error) {
	rec.raw = appendRecord(nil, rec)
	if _, err := s.activeF.WriteAt(rec.raw, s.activeOff); err != nil {
		return runLoc{}, err
	}
	loc := rec.locate(-1, s.activeOff)
	s.activeOff += int64(len(rec.raw))
	return loc, nil
}

// readRecordAt fetches and re-validates the record at loc, reading no more
// than its bytes of the active log or the frames of its segment that cover it.
func (s *Store) readRecordAt(loc runLoc) (record, error) {
	var raw []byte
	if loc.seg < 0 {
		raw = make([]byte, loc.rawLen)
		if _, err := s.activeF.ReadAt(raw, loc.off); err != nil {
			return record{}, fmt.Errorf("corpus: active log: %w", err)
		}
	} else {
		var err error
		if raw, err = s.readSealed(loc.seg, loc.off, loc.rawLen); err != nil {
			return record{}, err
		}
	}
	rec, _, err := parseRecord(raw)
	if err != nil {
		return record{}, fmt.Errorf("corpus: record: %w", err)
	}
	return rec, nil
}

// GetBytes reconstructs the standalone v1 encoding of the trace addressed by
// hash. The result is byte-identical to the ingested encoding; any
// divergence (corrupt store) is an error.
func (s *Store) GetBytes(hash uint64) ([]byte, error) {
	j, err := s.reassemble(hash)
	return j.Enc, err
}

// reassemble is the one reconstruction behind GetBytes, Get and GetProjected:
// the record re-validated, a delta run rejoined along its class's plan, and
// the result held to its content hash before anything decodes it. A run
// stored in full has no plan; its Joined is the bare bytes.
func (s *Store) reassemble(hash uint64) (merge.Joined, error) {
	obs.Attached().Inc(obs.CorpusGets)
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.index[hash]
	if !ok {
		return merge.Joined{}, fmt.Errorf("corpus: no trace %016x", hash)
	}
	rec, err := s.readRecordAt(loc)
	if err != nil {
		return merge.Joined{}, err
	}
	if rec.hash != hash {
		return merge.Joined{}, fmt.Errorf("corpus: record hash %016x does not match requested %016x", rec.hash, hash)
	}
	var j merge.Joined
	switch {
	case rec.flags&flagFull != 0:
		j.Enc = append([]byte{}, rec.body...)
	case rec.flags&flagDelta != 0:
		c, ok := s.classes[rec.classK]
		if !ok {
			return merge.Joined{}, fmt.Errorf("corpus: trace %016x references missing class %016x", hash, rec.classK)
		}
		if j, err = c.plan.Reassemble(c.ref, rec.body, rec.fullLen); err != nil {
			return merge.Joined{}, fmt.Errorf("corpus: trace %016x: %w", hash, err)
		}
	default:
		return merge.Joined{}, fmt.Errorf("corpus: trace %016x has no stored form (flags %#x)", hash, rec.flags)
	}
	if ContentHash(j.Enc) != hash {
		return merge.Joined{}, fmt.Errorf("corpus: trace %016x reconstruction does not match its content hash", hash)
	}
	return j, nil
}

// Get returns the decoded trace addressed by hash, pinned in the serving
// cache. The caller must Release the returned Trace when done with it; until
// then it cannot be evicted. Repeated gets of a resident trace do no decode
// work.
func (s *Store) Get(hash uint64) (*Trace, error) {
	return s.get(hash, merge.SelectAll())
}

// GetProjected is Get with a rank projection pushed into the decode: on a
// cache miss the trace is reconstructed once but only the selected ranks'
// timing payloads are decoded, and the tree serves those ranks alone (see
// merge.DecodeSelectAuto). Such a tree is never cached, so a later Get still
// decodes the whole trace. A resident whole trace serves a projected get too.
func (s *Store) GetProjected(hash uint64, ranks []int) (*Trace, error) {
	return s.get(hash, merge.SelectRanks(ranks...))
}

// get is the shared body of Get and GetProjected: cache acquire, else
// reassemble the bytes and decode them under sel (merge.Joined.Decode). Only
// a whole tree enters the cache; a projected one goes to its caller alone.
func (s *Store) get(hash uint64, sel merge.Selection) (*Trace, error) {
	sink := obs.Attached()
	tsp := obs.AttachedRecorder().Begin(ftrace.CatCorpus, ftrace.NameCorpusGet, 0)
	if t, ok := s.cache.Acquire(hash); ok {
		sink.Inc(obs.CorpusGets)
		sink.Inc(obs.CorpusCacheHits)
		tsp.End(1, t.cost)
		return t, nil
	}
	sink.Inc(obs.CorpusCacheMisses)
	j, err := s.reassemble(hash)
	if err != nil {
		return nil, err
	}
	m, err := j.Decode(sel)
	if err != nil {
		return nil, fmt.Errorf("corpus: trace %016x: %w", hash, err)
	}
	cost := int64(len(j.Enc))
	defer tsp.End(0, cost)
	if !sel.All() {
		return &Trace{Merged: m, hash: hash, cost: cost}, nil
	}
	return s.cache.Insert(hash, m, cost), nil
}

// Delete removes a trace from the corpus by appending a tombstone. The bytes
// are reclaimed at the next GC.
func (s *Store) Delete(hash uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("corpus: store is closed")
	}
	loc, ok := s.index[hash]
	if !ok {
		return fmt.Errorf("corpus: no trace %016x", hash)
	}
	if _, err := s.appendActive(record{hash: hash, flags: flagTombstone}); err != nil {
		return fmt.Errorf("corpus: delete: %w", err)
	}
	s.dropAccounting(loc)
	delete(s.index, hash)
	s.cache.Invalidate(hash)
	return nil
}

// cutMin is the payload a segment frame may hold before the next record starts
// a frame of its own: a longer record always sits alone, shorter ones share a
// frame up to it. A frame costs 19 bytes of header and index entry plus a cold
// deflate context — 77 B on 340-byte records, 150–380 B on MG-512's 12 KB —
// and a neighbour about 4 µs/KB to inflate. 32 runs of a 64-rank exchange,
// 370 B a record (store bytes / cold GetProjected): cut at every record 6953 /
// 63 µs, 1 KB 5842 / 69, 2 KB 4941 / 75, 4 KB 4445 / 85, 8 KB 4275 / 85, never
// 4031 / 102. archive-mg512x8, records of 3 and 12 KB: +1.2 … +2.9 % per run.
const cutMin = 4 << 10

// writeSegment seals stream, whole run records end to end, into the next
// segment file and registers it. It is the one place a segment's layout is
// decided: a CYPB frame boundary between records (see cutMin), so readSealed
// inflates a record without its neighbours. Readers only ever asked frames to
// tile the payload: older binaries open this, their one-frame segments open here.
func (s *Store) writeSegment(stream []byte) (int, error) {
	n := s.nextSeg
	var buf bytes.Buffer
	buf.Write(segMagic[:])
	buf.WriteByte(formatVersion)
	w, err := blockio.NewWriter(&buf, blockio.WriterOptions{Workers: s.opt.Workers})
	if err != nil {
		return 0, err
	}
	for open := 0; len(stream) > 0; {
		r, rest, err := parseRecord(stream)
		if err != nil {
			return 0, fmt.Errorf("record: %w", err)
		}
		if open+len(r.raw) > cutMin {
			w.Cut()
			open = 0
		}
		if _, err := w.Write(r.raw); err != nil {
			return 0, err
		}
		open, stream = open+len(r.raw), rest
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	idx, err := blockio.Scan(buf.Bytes()[segHeaderLen:])
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(s.segPath(n), buf.Bytes(), 0o644); err != nil {
		return 0, err
	}
	s.nextSeg++
	s.segs = append(s.segs, n)
	s.frames[n] = idx
	return n, nil
}

// seal moves the active log's records into a new CYPB segment and truncates
// the log. Callers hold s.mu.
func (s *Store) seal() error {
	if s.activeOff <= segHeaderLen {
		return nil
	}
	stream := make([]byte, s.activeOff-segHeaderLen)
	if _, err := s.activeF.ReadAt(stream, segHeaderLen); err != nil {
		return err
	}
	n, err := s.writeSegment(stream)
	if err != nil {
		return err
	}
	// Live locations in the log keep their record offsets relative to the
	// stream start; the segment payload is that stream verbatim.
	for h, loc := range s.index {
		if loc.seg < 0 {
			loc.seg, loc.off = n, loc.off-segHeaderLen
			s.index[h] = loc
		}
	}
	if err := s.activeF.Truncate(segHeaderLen); err != nil {
		return err
	}
	s.activeOff = segHeaderLen
	return nil
}

// GC seals the active log, then compacts the corpus: live run records are
// rewritten into one fresh segment, tombstones and superseded records are
// dropped, and class files no longer referenced by any delta run are
// deleted. Each old segment is read once, however many live records it holds.
func (s *Store) GC() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("corpus: store is closed")
	}
	if err := s.seal(); err != nil {
		return fmt.Errorf("corpus: gc: %w", err)
	}
	type liveRun struct {
		hash uint64
		loc  runLoc
		raw  []byte
	}
	live := make([]liveRun, 0, len(s.index))
	for h, loc := range s.index {
		live = append(live, liveRun{hash: h, loc: loc})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].loc.seg < live[j].loc.seg })
	var payload []byte
	for i := range live {
		lr := &live[i]
		if i == 0 || lr.loc.seg != live[i-1].loc.seg {
			var err error
			if payload, err = s.readSegment(lr.loc.seg); err != nil {
				return fmt.Errorf("corpus: gc: %w", err)
			}
		}
		if end := lr.loc.off + int64(lr.loc.rawLen); end > int64(len(payload)) {
			return fmt.Errorf("corpus: gc: trace %016x: record ends past its segment", lr.hash)
		}
		lr.raw = payload[lr.loc.off:][:lr.loc.rawLen]
	}
	sort.Slice(live, func(i, j int) bool { return live[i].hash < live[j].hash })

	oldSegs := s.segs
	s.segs = nil
	newIndex := make(map[uint64]runLoc, len(live))
	if len(live) > 0 {
		var stream []byte
		for _, lr := range live {
			lr.loc.seg, lr.loc.off = s.nextSeg, int64(len(stream))
			newIndex[lr.hash] = lr.loc
			stream = append(stream, lr.raw...)
		}
		if _, err := s.writeSegment(stream); err != nil {
			return fmt.Errorf("corpus: gc: %w", err)
		}
	}
	s.index = newIndex
	for _, n := range oldSegs {
		delete(s.frames, n)
		if err := os.Remove(s.segPath(n)); err != nil {
			return fmt.Errorf("corpus: gc: %w", err)
		}
	}
	// Drop classes with no remaining delta reference.
	referenced := make(map[uint64]bool)
	for _, loc := range s.index {
		if loc.flags&flagDelta != 0 {
			referenced[loc.classK] = true
		}
	}
	for key := range s.classes {
		if !referenced[key] {
			if err := os.Remove(s.classPath(key)); err != nil {
				return fmt.Errorf("corpus: gc: %w", err)
			}
			delete(s.classes, key)
		}
	}
	return nil
}

// Stats summarizes the store.
type Stats struct {
	Classes      int   `json:"classes"`
	Runs         int   `json:"runs"`
	DeltaRuns    int   `json:"delta_runs"`
	FullRuns     int   `json:"full_runs"`
	Segments     int   `json:"segments"`
	LogicalBytes int64 `json:"logical_bytes"` // summed standalone encodings
	StoredBytes  int64 `json:"stored_bytes"`  // summed live record bodies
	DiskBytes    int64 `json:"disk_bytes"`    // bytes on disk right now
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
}

// Stats reports current store totals. DiskBytes walks the directory.
func (s *Store) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Classes:      len(s.classes),
		Runs:         len(s.index),
		DeltaRuns:    int(s.deltaRuns),
		FullRuns:     int(s.fullRuns),
		Segments:     len(s.segs),
		LogicalBytes: s.logicalBytes,
		StoredBytes:  s.storedBytes,
	}
	st.CacheEntries, st.CacheBytes = s.cache.Stats()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return Stats{}, fmt.Errorf("corpus: stats: %w", err)
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return Stats{}, fmt.Errorf("corpus: stats: %w", err)
		}
		st.DiskBytes += info.Size()
	}
	return st, nil
}

// Hashes lists the content hashes of every live trace, ascending.
func (s *Store) Hashes() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, 0, len(s.index))
	for h := range s.index {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Close seals the active log into a segment and closes the store. The
// serving cache is dropped; outstanding Trace references stay usable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.seal()
	if cerr := s.activeF.Close(); err == nil {
		err = cerr
	}
	s.cache.Clear()
	if err != nil {
		return fmt.Errorf("corpus: close: %w", err)
	}
	return nil
}
