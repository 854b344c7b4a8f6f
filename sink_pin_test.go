package cypress

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/trace"
)

const sinkPinTable = "testdata/sink_pin_npb.txt"

// streamHash is a trace.Sink that hashes every call it receives: each marker
// with its site and arm, and each event field, timings by their float bits.
type streamHash struct {
	h   hash.Hash
	buf []byte
}

func (s *streamHash) put(tag byte, vals ...int64) {
	s.buf = append(s.buf[:0], tag)
	for _, v := range vals {
		s.buf = binary.AppendVarint(s.buf, v)
	}
	s.h.Write(s.buf)
}

func (s *streamHash) LoopEnter(site int32)             { s.put('L', int64(site)) }
func (s *streamHash) LoopIter(site int32)              { s.put('I', int64(site)) }
func (s *streamHash) BranchEnter(site int32, arm int8) { s.put('B', int64(site), int64(arm)) }
func (s *streamHash) BranchSkip(site int32)            { s.put('S', int64(site)) }
func (s *streamHash) CallEnter(site int32)             { s.put('C', int64(site)) }
func (s *streamHash) StructExit()                      { s.put('X') }
func (s *streamHash) CommSite(site int32)              { s.put('M', int64(site)) }
func (s *streamHash) Finalize()                        { s.put('F') }

func (s *streamHash) Event(e *trace.Event) {
	s.put('E', int64(e.Op), int64(e.Size), int64(e.Peer), int64(e.Tag), int64(e.Comm), int64(e.GID),
		boolInt(e.Wildcard), int64(e.ReqID),
		int64(math.Float64bits(e.DurationNS)), int64(math.Float64bits(e.ComputeNS)),
		int64(len(e.Reqs)), int64(len(e.ReqSrcs)))
	for _, r := range e.Reqs {
		s.put('q', int64(r))
	}
	for _, r := range e.ReqSrcs {
		s.put('s', int64(r))
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sinkRow runs src on n ranks, each into its own streamHash, and returns one
// table line: sha256 over the ranks' stream hashes, in rank order.
func sinkRow(t *testing.T, name, src string, n int) string {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	hs := make([]*streamHash, n)
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		hs[i] = &streamHash{h: sha256.New()}
		sinks[i] = hs[i]
	}
	if _, err := mpisim.Run(n, pinParams, sinks, func(r *mpisim.Rank) {
		interp.Execute(p.AST, r)
	}); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	all := sha256.New()
	for _, h := range hs {
		all.Write(h.h.Sum(nil))
	}
	return fmt.Sprintf("%s %x", name, all.Sum(nil))
}

// TestSinkStreamPinNPB pins what the live run hands the tracer: every
// marker, every event and every timing of all nine npb skeletons at 64
// ranks. TestEncodePinNPB pins the compressor's output; this table pins its
// input, so an interpreter or runtime change that moves one marker, one
// request id or one duration bit fails here by skeleton name.
//
//	go test -run TestSinkStreamPinNPB -update .
func TestSinkStreamPinNPB(t *testing.T) {
	var rows []string
	for _, w := range npb.All() {
		rows = append(rows, sinkRow(t, w.Name+"/n64", w.Source(64, npb.Small), 64))
	}
	got := strings.Join(rows, "\n") + "\n"
	if *updatePin {
		if err := os.WriteFile(sinkPinTable, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sinkPinTable)
	if err != nil {
		t.Fatalf("missing pin table (run with -update to generate): %v", err)
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantRows) != len(rows) {
		t.Fatalf("pin table has %d rows, the test produces %d", len(wantRows), len(rows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("sink stream drifted:\n got %s\nwant %s", rows[i], wantRows[i])
		}
	}
}
