package main

// Recorded inputs of the timed pipeline. Set-up runs each workload's program
// live on the goroutine-per-rank mpisim substrate once per run and records
// every rank's trace.Sink call stream; the timed ops replay those streams
// into fresh compressors, so the substrate (which stands in for the cluster
// and is not the system under test) never runs inside a timed region.
//
// The recording is pointer-free: markers are packed words, events are scalar
// structs, and request lists live in one []int32 arena per rank. The Go
// collector therefore never scans the 100–300 MB of recorded input while the
// pipeline under test is being timed.

import (
	"fmt"
	"math/rand"
	"time"

	cypress "repro"
	"repro/internal/mpisim"
	"repro/internal/trace"
)

// Sink-call opcodes, stored in the low byte of a marker word.
const (
	kLoopEnter = iota
	kLoopIter
	kBranchEnter
	kBranchSkip
	kCallEnter
	kStructExit
	kCommSite
	kEvent
	kFinalize
)

// eventRec is a trace.Event without pointers. Reqs and ReqSrcs are the
// arena ranges [reqOff, reqOff+nReq) and [srcOff, srcOff+nSrc); an offset of
// -1 stands for a nil slice.
type eventRec struct {
	dur, compute   float64
	size           int64
	peer, tag      int32
	comm, reqID    int32
	reqOff, srcOff int32
	nReq, nSrc     int32
	op             trace.Op
	wildcard       bool
}

// rankStream is one rank's recorded sink calls. A marker word holds the
// opcode in bits 0–7, the branch arm in bits 8–15 and the site in bits
// 32–63; a kEvent marker consumes the next entry of events.
type rankStream struct {
	marks  []uint64
	events []eventRec
	arena  []int32
}

func mark(kind uint8, site int32, arm int8) uint64 {
	return uint64(kind) | uint64(uint8(arm))<<8 | uint64(uint32(site))<<32
}

// replay drives every recorded call into dst. Request lists alias the arena;
// the compressor copies what it retains and never writes through them.
func (s *rankStream) replay(dst trace.Sink) {
	var ev trace.Event
	next := 0
	for _, m := range s.marks {
		site := int32(m >> 32)
		switch uint8(m) {
		case kLoopEnter:
			dst.LoopEnter(site)
		case kLoopIter:
			dst.LoopIter(site)
		case kBranchEnter:
			dst.BranchEnter(site, int8(m>>8))
		case kBranchSkip:
			dst.BranchSkip(site)
		case kCallEnter:
			dst.CallEnter(site)
		case kStructExit:
			dst.StructExit()
		case kCommSite:
			dst.CommSite(site)
		case kEvent:
			r := &s.events[next]
			next++
			ev = trace.Event{
				Op: r.op, Size: int(r.size), Peer: int(r.peer), Tag: int(r.tag),
				Comm: int(r.comm), GID: -1, Wildcard: r.wildcard, ReqID: r.reqID,
				DurationNS: r.dur, ComputeNS: r.compute,
			}
			if r.reqOff >= 0 {
				ev.Reqs = s.arena[r.reqOff : r.reqOff+r.nReq : r.reqOff+r.nReq]
			}
			if r.srcOff >= 0 {
				ev.ReqSrcs = s.arena[r.srcOff : r.srcOff+r.nSrc : r.srcOff+r.nSrc]
			}
			dst.Event(&ev)
		case kFinalize:
			dst.Finalize()
		}
	}
}

// recorder is the trace.Sink the live run writes into. Besides the stream it
// keeps the two oracle references of its rank: a hash of the raw event
// sequence and the raw send volume.
type recorder struct {
	s         rankStream
	hash      uint64
	sendBytes int64
}

func (r *recorder) LoopEnter(site int32) { r.s.marks = append(r.s.marks, mark(kLoopEnter, site, 0)) }
func (r *recorder) LoopIter(site int32)  { r.s.marks = append(r.s.marks, mark(kLoopIter, site, 0)) }
func (r *recorder) BranchEnter(site int32, arm int8) {
	r.s.marks = append(r.s.marks, mark(kBranchEnter, site, arm))
}
func (r *recorder) BranchSkip(site int32) { r.s.marks = append(r.s.marks, mark(kBranchSkip, site, 0)) }
func (r *recorder) CallEnter(site int32)  { r.s.marks = append(r.s.marks, mark(kCallEnter, site, 0)) }
func (r *recorder) StructExit()           { r.s.marks = append(r.s.marks, mark(kStructExit, 0, 0)) }
func (r *recorder) CommSite(site int32)   { r.s.marks = append(r.s.marks, mark(kCommSite, site, 0)) }
func (r *recorder) Finalize()             { r.s.marks = append(r.s.marks, mark(kFinalize, 0, 0)) }

func (r *recorder) Event(e *trace.Event) {
	rec := eventRec{
		dur: e.DurationNS, compute: e.ComputeNS, size: int64(e.Size),
		peer: int32(e.Peer), tag: int32(e.Tag), comm: int32(e.Comm), reqID: e.ReqID,
		reqOff: -1, srcOff: -1, op: e.Op, wildcard: e.Wildcard,
	}
	if e.Reqs != nil {
		rec.reqOff, rec.nReq = int32(len(r.s.arena)), int32(len(e.Reqs))
		r.s.arena = append(r.s.arena, e.Reqs...)
	}
	if e.ReqSrcs != nil {
		rec.srcOff, rec.nSrc = int32(len(r.s.arena)), int32(len(e.ReqSrcs))
		r.s.arena = append(r.s.arena, e.ReqSrcs...)
	}
	r.s.events = append(r.s.events, rec)
	r.s.marks = append(r.s.marks, mark(kEvent, 0, 0))
	r.hash = hashEvent(r.hash, e)
	if e.Op.IsSendLike() {
		r.sendBytes += int64(e.Size)
	}
}

// hashEvent folds into h the fields of e that sequence-preserving
// compression must reproduce — the ones replay.Equivalent compares. Request
// ids are rewritten to vertex ids and times are summarized, so only the
// request count enters; a non-blocking wildcard receive is posted with
// AnySource and replayed with its resolved source, so its peer is left out.
func hashEvent(h uint64, e *trace.Event) uint64 {
	h = mix(h, uint64(e.Op))
	h = mix(h, uint64(e.Size))
	if !(e.Op == trace.OpIrecv && e.Wildcard) {
		h = mix(h, uint64(e.Peer))
	}
	h = mix(h, uint64(e.Tag))
	h = mix(h, uint64(e.Comm))
	if e.Wildcard {
		h = mix(h, 1)
	}
	return mix(h, uint64(len(e.Reqs)))
}

func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// recordedRun is one live execution of the workload's program.
type recordedRun struct {
	params    mpisim.Params
	ranks     []rankStream
	hashes    []uint64 // per rank: hash of the raw event sequence
	sendBytes []int64  // per rank: raw send volume
	events    int64
}

// query is one seed-chosen single-rank read.
type query struct{ run, rank int }

// fixture is everything one benchmark run feeds the program under test.
type fixture struct {
	spec    workload
	prog    *cypress.Program
	runs    []recordedRun
	queries []query

	compileS, recordS float64 // set-up cost by layer
}

// buildFixture compiles the workload's program, records spec.runs live
// executions and draws the rank queries. Everything that varies comes from
// seed: each run's network parameters are perturbed by up to ±5 %, which
// changes the timing payload of the trace and never its structure.
func buildFixture(spec workload, seed int64) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	fx := &fixture{spec: spec}
	t0 := time.Now()
	prog, err := compile(spec.source())
	if err != nil {
		return nil, err
	}
	fx.prog = prog
	fx.compileS = time.Since(t0).Seconds()

	t0 = time.Now()
	for i := 0; i < spec.runs; i++ {
		p := mpisim.DefaultParams()
		p.LatencyNS *= 0.95 + 0.1*rng.Float64()
		p.GapPerByteNS *= 0.95 + 0.1*rng.Float64()
		run, err := recordRun(prog, spec.ranks, p)
		if err != nil {
			return nil, fmt.Errorf("recording run %d: %w", i, err)
		}
		fx.runs = append(fx.runs, run)
	}
	fx.recordS = time.Since(t0).Seconds()

	for i := 0; i < spec.queries; i++ {
		fx.queries = append(fx.queries, query{run: rng.Intn(spec.runs), rank: rng.Intn(spec.ranks)})
	}
	return fx, nil
}

func recordRun(prog *cypress.Program, ranks int, p mpisim.Params) (recordedRun, error) {
	recs := make([]recorder, ranks)
	sinks := make([]trace.Sink, ranks)
	for i := range recs {
		sinks[i] = &recs[i]
	}
	if err := runLive(prog, ranks, p, sinks); err != nil {
		return recordedRun{}, err
	}
	run := recordedRun{
		params:    p,
		ranks:     make([]rankStream, ranks),
		hashes:    make([]uint64, ranks),
		sendBytes: make([]int64, ranks),
	}
	for i := range recs {
		run.ranks[i] = recs[i].s
		run.hashes[i] = recs[i].hash
		run.sendBytes[i] = recs[i].sendBytes
		run.events += int64(len(recs[i].s.events))
	}
	return run, nil
}
