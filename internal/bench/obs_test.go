package bench

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestObservePipelineReport checks the pass behind `cypressbench -exp none
// -stats`: one Pipeline run with a sink attached must light up every stage's
// counters — one per layer that reads the attached sink — and once
// obs.Attach(nil, nil) detaches it, a second run must add nothing to it.
func TestObservePipelineReport(t *testing.T) {
	s := obs.New()
	obs.Attach(s, nil)
	err := Pipeline()
	obs.Attach(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Report()
	for _, key := range []string{
		"comp_events", "stride_values", "merge_pairs",
		"enc_traces", "dec_traces", "sim_events_processed",
		"corpus_ingests", "corpus_delta_runs", "corpus_stored_bytes",
		"corpus_cache_hits", "corpus_cache_misses",
		"replay_events_emitted", "io_frames_encoded", "io_frames_decoded",
		"pool_flate_gets",
	} {
		if r.Counters[key] == 0 {
			t.Errorf("observation pass left %s empty", key)
		}
	}
	if len(r.Stages) == 0 {
		t.Error("observation pass recorded no stage timings")
	}

	if err := Pipeline(); err != nil {
		t.Fatal(err)
	}
	if after := s.Report(); !reflect.DeepEqual(after.Counters, r.Counters) {
		t.Error("a pass after obs.Attach(nil, nil) still counted into the detached sink")
	}
}
