package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op                       Op
		p2p, nonblk, compl, coll bool
	}{
		{OpSend, true, false, false, false},
		{OpRecv, true, false, false, false},
		{OpIsend, true, true, false, false},
		{OpIrecv, true, true, false, false},
		{OpWait, false, false, true, false},
		{OpWaitall, false, false, true, false},
		{OpWaitsome, false, false, true, false},
		{OpTestsome, false, false, true, false},
		{OpTestany, false, false, true, false},
		{OpBarrier, false, false, false, true},
		{OpBcast, false, false, false, true},
		{OpReduce, false, false, false, true},
		{OpAllreduce, false, false, false, true},
		{OpAlltoall, false, false, false, true},
		{OpInit, false, false, false, false},
		{OpFinalize, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsPointToPoint() != c.p2p || c.op.IsNonBlocking() != c.nonblk ||
			c.op.IsCompletion() != c.compl || c.op.IsCollective() != c.coll {
			t.Errorf("%v classification wrong", c.op)
		}
		if !c.op.Valid() {
			t.Errorf("%v should be valid", c.op)
		}
	}
	if OpNone.Valid() || Op(200).Valid() {
		t.Error("invalid ops reported valid")
	}
}

func TestOpString(t *testing.T) {
	if OpIsend.String() != "MPI_Isend" {
		t.Fatalf("got %q", OpIsend.String())
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Fatalf("unknown op string: %q", Op(99).String())
	}
}

func TestSameParams(t *testing.T) {
	a := Event{Op: OpSend, Size: 1024, Peer: 3, Tag: 7, Comm: 0}
	b := a
	if !a.SameParams(&b) {
		t.Fatal("identical events must match")
	}
	b.DurationNS = 999 // time is excluded from comparison
	if !a.SameParams(&b) {
		t.Fatal("time must not affect SameParams")
	}
	for _, mut := range []func(*Event){
		func(e *Event) { e.Op = OpRecv },
		func(e *Event) { e.Size++ },
		func(e *Event) { e.Peer++ },
		func(e *Event) { e.Tag++ },
		func(e *Event) { e.Comm++ },
		func(e *Event) { e.Wildcard = true },
		func(e *Event) { e.Reqs = []int32{1} },
		func(e *Event) { e.ReqSrcs = []int32{2} },
	} {
		c := a
		c.Reqs = append([]int32(nil), a.Reqs...)
		mut(&c)
		if a.SameParams(&c) {
			t.Fatalf("mutation should break SameParams: %+v vs %+v", a, c)
		}
	}
	// Req lists compared element-wise.
	w1 := Event{Op: OpWaitall, Reqs: []int32{4, 5, 4}}
	w2 := Event{Op: OpWaitall, Reqs: []int32{4, 5, 4}}
	w3 := Event{Op: OpWaitall, Reqs: []int32{4, 4, 5}}
	if !w1.SameParams(&w2) || w1.SameParams(&w3) {
		t.Fatal("req list comparison wrong")
	}
	// ReqID is excluded: it is a monotonically growing handle number.
	r1 := Event{Op: OpIsend, ReqID: 0}
	r2 := Event{Op: OpIsend, ReqID: 17}
	if !r1.SameParams(&r2) {
		t.Fatal("ReqID must not affect SameParams")
	}
}

// TestSameParamsExceptPeerIsPure: the comparison differs from SameParams in
// the peer alone, and leaves its receiver — a stored record on the
// compressor's fold path — exactly as it found it, match or no match.
func TestSameParamsExceptPeerIsPure(t *testing.T) {
	stored := Event{Op: OpWaitall, Size: 64, Peer: 3, Tag: 7, Comm: 1, GID: 12, ReqID: -1,
		Reqs: []int32{4, 5}, ReqSrcs: []int32{1, -1}, DurationNS: 10, ComputeNS: 20}
	before := stored
	before.Reqs = append([]int32(nil), stored.Reqs...)
	before.ReqSrcs = append([]int32(nil), stored.ReqSrcs...)
	for name, mut := range map[string]func(*Event){
		"same":    func(*Event) {},
		"peer":    func(e *Event) { e.Peer = 9 },
		"op":      func(e *Event) { e.Op = OpWaitsome },
		"size":    func(e *Event) { e.Size++ },
		"tag":     func(e *Event) { e.Tag++ },
		"comm":    func(e *Event) { e.Comm++ },
		"wild":    func(e *Event) { e.Wildcard = true },
		"reqs":    func(e *Event) { e.Reqs = []int32{4, 6} },
		"reqsrcs": func(e *Event) { e.ReqSrcs = nil },
		"ignored": func(e *Event) { e.DurationNS, e.ComputeNS, e.ReqID, e.GID = 1, 2, 3, 4 },
	} {
		o := before
		mut(&o)
		wantSame := name == "same" || name == "ignored"
		if got := stored.SameParams(&o); got != wantSame {
			t.Errorf("%s: SameParams = %v, want %v", name, got, wantSame)
		}
		if got, want := stored.SameParamsExceptPeer(&o), wantSame || name == "peer"; got != want {
			t.Errorf("%s: SameParamsExceptPeer = %v, want %v", name, got, want)
		}
		if !reflect.DeepEqual(stored, before) {
			t.Fatalf("%s: comparison changed its receiver: %+v, was %+v", name, stored, before)
		}
	}
}

// TestSameParamsConcurrentReaders compares one stored record from two
// goroutines, each against its own peer; run under -race (CI's race job), a
// comparison that writes to the record fails here.
func TestSameParamsConcurrentReaders(t *testing.T) {
	stored := Event{Op: OpSend, Size: 64, Peer: 3, Tag: 7}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			o := stored
			o.Peer = peer
			for i := 0; i < 1000; i++ {
				if !stored.SameParamsExceptPeer(&o) || stored.SameParams(&o) {
					t.Errorf("peer %d: wrong comparison result", peer)
					return
				}
			}
		}(10 + g)
	}
	wg.Wait()
}

func randEvent(rng *rand.Rand) Event {
	ops := []Op{OpSend, OpRecv, OpIsend, OpIrecv, OpWait, OpWaitall, OpBcast,
		OpReduce, OpAllreduce, OpBarrier, OpAlltoall, OpInit, OpFinalize}
	e := Event{
		Op:         ops[rng.Intn(len(ops))],
		Size:       rng.Intn(1 << 20),
		Peer:       rng.Intn(512) - 2, // exercises negative sentinels
		Tag:        rng.Intn(100),
		Comm:       rng.Intn(3),
		GID:        int32(rng.Intn(1000)) - 1,
		Wildcard:   rng.Intn(4) == 0,
		DurationNS: rng.Float64() * 1e7,
		ComputeNS:  rng.Float64() * 1e7,
	}
	if e.Op.IsNonBlocking() {
		e.ReqID = int32(rng.Intn(1000))
	} else {
		e.ReqID = -1
	}
	if e.Op.IsCompletion() {
		n := rng.Intn(5)
		for i := 0; i < n; i++ {
			e.Reqs = append(e.Reqs, int32(rng.Intn(100)))
		}
		if n > 0 && rng.Intn(2) == 0 {
			for i := 0; i < n; i++ {
				e.ReqSrcs = append(e.ReqSrcs, int32(rng.Intn(64))-1)
			}
		}
	}
	return e
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	events := make([]Event, 2000)
	for i := range events {
		events[i] = randEvent(rng)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range events {
		w.WriteEvent(&events[i])
	}
	n, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, buffer has %d", n, buf.Len())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if !reflect.DeepEqual(normalize(events[i]), normalize(got[i])) {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

// normalize maps nil and empty request slices to the same representation.
func normalize(e Event) Event {
	if len(e.Reqs) == 0 {
		e.Reqs = nil
	}
	if len(e.ReqSrcs) == 0 {
		e.ReqSrcs = nil
	}
	return e
}

func TestCodecEmptyStream(t *testing.T) {
	got, err := NewReader(bytes.NewReader(nil)).ReadAll()
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %v %v", got, err)
	}
}

func TestCodecTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	e := Event{Op: OpSend, Size: 1 << 19, Peer: 44, Tag: 3}
	w.WriteEvent(&e)
	w.Flush()
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.ReadEvent(); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		} else if err == io.EOF && cut > 1 {
			// First byte consumed means mid-record truncation must not be
			// reported as clean EOF.
			t.Fatalf("mid-record truncation at %d reported as EOF", cut)
		}
	}
}

func TestCodecRejectsInvalidOp(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xC8, 0x01})) // varint 200
	if _, err := r.ReadEvent(); err == nil {
		t.Fatal("invalid op accepted")
	}
}

func TestQuickCodec(t *testing.T) {
	f := func(size uint16, peer int16, tag uint8, dur float64) bool {
		e := Event{Op: OpIsend, Size: int(size), Peer: int(peer), Tag: int(tag), DurationNS: dur}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.WriteEvent(&e)
		w.Flush()
		got, err := NewReader(&buf).ReadEvent()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(e), normalize(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteEvent(b *testing.B) {
	w := NewWriter(io.Discard)
	e := Event{Op: OpSend, Size: 4096, Peer: 17, Tag: 2, DurationNS: 1234}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.WriteEvent(&e)
	}
	w.Flush()
}
