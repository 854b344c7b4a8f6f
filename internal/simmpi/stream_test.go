package simmpi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/trace"
)

// reusingSource yields its events through one reused buffer, the contract
// replay.Cursor relies on: the engine must copy the event it is blocked on,
// never hold the pointer across Next calls.
type reusingSource struct {
	evs []trace.Event
	i   int
	buf trace.Event
}

func (s *reusingSource) Next() (*trace.Event, bool) {
	if s.i >= len(s.evs) {
		return nil, false
	}
	s.buf = s.evs[s.i]
	s.i++
	// Poison the previous hand-out: anyone aliasing the pointer across calls
	// sees garbage, so identity with the slice path proves value semantics.
	return &s.buf, true
}

// reusingSources wraps each sequence in a buffer-reusing source.
func reusingSources(seqs [][]trace.Event) []EventSource {
	srcs := make([]EventSource, len(seqs))
	for i := range seqs {
		srcs[i] = &reusingSource{evs: seqs[i]}
	}
	return srcs
}

// exchangeSeqs is a 3-rank fixture that forces blocked retries: rank 0's recv
// waits on rank 2's send, which is processed after rank 0's first attempt, so
// the engine revisits held events — through the buffer-reusing source this
// only works if the event was copied.
func exchangeSeqs() [][]trace.Event {
	return [][]trace.Event{
		{
			{Op: trace.OpRecv, Size: 512, Peer: 2, Tag: 3, ComputeNS: 100},
			{Op: trace.OpSend, Size: 256, Peer: 1, Tag: 4, ComputeNS: 50},
			{Op: trace.OpAllreduce, Size: 8, Peer: trace.NoPeer},
		},
		{
			{Op: trace.OpRecv, Size: 256, Peer: 0, Tag: 4, ComputeNS: 20},
			{Op: trace.OpAllreduce, Size: 8, Peer: trace.NoPeer},
		},
		{
			{Op: trace.OpSend, Size: 512, Peer: 0, Tag: 3, ComputeNS: 900},
			{Op: trace.OpAllreduce, Size: 8, Peer: trace.NoPeer},
		},
	}
}

// TestSimulateStreamMatchesSimulate pins the shared-engine guarantee: pulling
// events one at a time through buffer-reusing iterators produces exactly the
// result of simulating fully materialized sequences.
func TestSimulateStreamMatchesSimulate(t *testing.T) {
	seqs := exchangeSeqs()
	params := mpisim.DefaultParams()
	want, err := Simulate(seqs, params)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateStreamPar(reusingSources(seqs), params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("stream result differs from materialized result:\n got %+v\nwant %+v", got, want)
	}
}

// TestSimulateStreamEmptyRankStalls pins the historical semantics the stream
// engine must preserve: a rank whose sequence is empty from the start is
// reported as a stall, exactly like the materializing engine always did. The
// report names the empty rank, not the first of the peers blocked on it.
func TestSimulateStreamEmptyRankStalls(t *testing.T) {
	barrierOnly := [][]trace.Event{{{Op: trace.OpBarrier, Peer: trace.NoPeer}}, nil}
	ring := ringTrace(6, 4)
	ring[4] = nil
	for _, tc := range []struct {
		name  string
		seqs  [][]trace.Event
		empty int
	}{
		{"barrier", barrierOnly, 1},
		{"ring", ring, 4},
	} {
		_, err := SimulateStreamPar(reusingSources(tc.seqs), mpisim.DefaultParams(), 1)
		if err == nil {
			t.Fatalf("%s: empty-rank stall not detected", tc.name)
		}
		want := fmt.Sprintf("stalled (mismatched trace?): rank %d yielded no events", tc.empty)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: stall report %q does not name the empty rank %d", tc.name, err, tc.empty)
		}
	}
}
