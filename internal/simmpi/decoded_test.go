package simmpi

import (
	"testing"

	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/obs"
)

// TestDecodedPendingBounded pins the simulator's request accounting on traces
// served from a file: every wait finds the receives it names, so a rank's
// pending list never outgrows the program's outstanding receives and nothing
// is left posted when the rank drains. Before decode restored call-site GIDs
// both counters grew with the event count (one entry per Irecv, never
// removed) and every completion rescanned the list.
func TestDecodedPendingBounded(t *testing.T) {
	for _, tc := range []struct {
		workload    string
		outstanding int64 // receives a rank has posted at once
	}{
		{"CG", 1}, {"MG", 2}, {"BT", 4}, {"SP", 4},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			seqs := decodedSeqs(t, npb.Get(tc.workload).Source(64, npb.Small), 64)
			s := obs.New()
			obs.Attach(s, nil)
			_, err := Simulate(seqs, mpisim.DefaultParams())
			obs.Attach(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// peak < 1 would mean the fixture posts no Irecv at all.
			if peak := s.Value(obs.SimPendingPeak); peak < 1 || peak > tc.outstanding {
				t.Errorf("sim_pending_peak = %d, want 1..%d", peak, tc.outstanding)
			}
			if un := s.Value(obs.SimUnmatchedRecvs); un != 0 {
				t.Errorf("sim_unmatched_recvs = %d, want 0", un)
			}
		})
	}
}
