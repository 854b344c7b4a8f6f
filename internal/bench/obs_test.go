package bench

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
)

// TestObservePipelineReport checks the pass behind `cypressbench -exp none
// -stats`: one Pipeline run with a sink and a recorder attached must light
// up every stage's counters — one per layer that reads the attached sink —
// and time every stage in the recorder's totals; once obs.Attach(nil, nil)
// detaches the sink, a second run must add nothing to it.
func TestObservePipelineReport(t *testing.T) {
	s, rec := obs.New(), ftrace.New(0)
	obs.Attach(s, rec)
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
		"corpus_cache_hits", "corpus_cache_misses", "corpus_patched_words",
		"replay_events_emitted", "io_frames_encoded", "io_frames_decoded",
	} {
		if r.Counters[key] == 0 {
			t.Errorf("observation pass left %s empty", key)
		}
	}
	spans := map[string]int64{}
	for _, tot := range rec.Totals() {
		spans[tot.Name] = tot.Count
	}
	for _, name := range []string{"finish", "pair", "reduce", "encode", "deflate", "inflate", "get", "skeleton", "simulate"} {
		if spans[name] == 0 {
			t.Errorf("observation pass recorded no %s spans", name)
		}
	}

	if err := Pipeline(); err != nil {
		t.Fatal(err)
	}
	if after := s.Report(); !reflect.DeepEqual(after.Counters, r.Counters) {
		t.Error("a pass after obs.Attach(nil, nil) still counted into the detached sink")
	}
}
