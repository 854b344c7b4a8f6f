package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	ftrace "repro/internal/obs/trace"
)

// TestNilSinkIsSafeAndFree pins the disabled state: every method on a nil
// sink must be a no-op, and the hot-path methods must not allocate.
func TestNilSinkIsSafeAndFree(t *testing.T) {
	var s *Sink
	allocs := testing.AllocsPerRun(200, func() {
		s.Inc(CompEvents)
		s.Add(MergePairs, 7)
		s.SetMax(CompReqPeak, 42)
		s.Observe(HistReqOccupancy, 3)
	})
	if allocs != 0 {
		t.Errorf("nil sink allocates %.1f allocs/op, want 0", allocs)
	}
	if s.Enabled() {
		t.Error("nil sink reports Enabled")
	}
	if got := s.Value(CompEvents); got != 0 {
		t.Errorf("nil sink Value = %d", got)
	}
	r := s.Report()
	if r == nil || len(r.Counters) != 0 {
		t.Errorf("nil sink report not empty: %+v", r)
	}
}

// TestEnabledSinkHotPathAllocs pins that the enabled sink's per-event
// operations are allocation-free too (atomics only): attaching a sink must
// not move any hot path off its 0-allocs/op budget.
func TestEnabledSinkHotPathAllocs(t *testing.T) {
	s := New()
	allocs := testing.AllocsPerRun(200, func() {
		s.Inc(CompEvents)
		s.Add(ReplayEventsEmitted, 51)
		s.SetMax(CompReqPeak, 2)
		s.Observe(HistSimQueueDepth, 5)
	})
	if allocs != 0 {
		t.Errorf("enabled sink allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestCountersAndMax(t *testing.T) {
	s := New()
	s.Inc(CompEvents)
	s.Add(CompEvents, 9)
	if got := s.Value(CompEvents); got != 10 {
		t.Errorf("Value = %d, want 10", got)
	}
	s.SetMax(CompReqPeak, 5)
	s.SetMax(CompReqPeak, 3)
	s.SetMax(CompReqPeak, 8)
	if got := s.Value(CompReqPeak); got != 8 {
		t.Errorf("SetMax kept %d, want 8", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want int
	}{{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11}, {1 << 40, HistBuckets - 1}} {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if BucketUpper(0) != 0 || BucketUpper(1) != 1 || BucketUpper(2) != 3 || BucketUpper(10) != 1023 {
		t.Errorf("BucketUpper bounds wrong: %d %d %d %d",
			BucketUpper(0), BucketUpper(1), BucketUpper(2), BucketUpper(10))
	}
}

func TestReportContents(t *testing.T) {
	s := New()
	s.Add(CompEvents, 100)
	s.Add(CompMergeHits, 90)
	s.Add(CompNewRecords, 10)
	s.Add(MergeWalks, 40)
	s.Add(MergeWalkRejects, 10)
	s.Add(MergeKeyRejects, 40)
	s.SetMax(SimPendingPeak, 2)
	s.SetMax(SimPendingPeak, 1)
	for i := 0; i < 100; i++ {
		s.Observe(HistReqOccupancy, int64(i%7))
	}
	rec := ftrace.New(0)
	rec.Begin(ftrace.CatMerge, ftrace.NameReduce, 0).End(2, 1)

	r := s.Report()
	r.Spans = rec.Totals()
	if r.Counters["comp_events"] != 100 {
		t.Errorf("comp_events = %d", r.Counters["comp_events"])
	}
	if _, ok := r.Counters["sim_blocked_copies"]; ok {
		t.Error("zero counter should be omitted")
	}
	// The simulator's request accounting goes by stable names: the gauge
	// keeps its peak, and a clean run's zero sim_unmatched_recvs is omitted
	// like any zero counter.
	if got := r.Counters["sim_pending_peak"]; got != 2 {
		t.Errorf("sim_pending_peak = %d, want 2", got)
	}
	if _, ok := r.Counters["sim_unmatched_recvs"]; ok {
		t.Error("zero sim_unmatched_recvs should be omitted")
	}
	if got := r.Rates["comp_fold_rate"]; got != 0.9 {
		t.Errorf("comp_fold_rate = %v, want 0.9", got)
	}
	// Key rejects and walks share one denominator: all probes. Walk
	// rejects are a share of the walks, not a third kind of probe.
	if got := r.Rates["merge_key_reject_rate"]; got != 0.5 {
		t.Errorf("merge_key_reject_rate = %v, want 0.5", got)
	}
	if len(r.Spans) != 1 || r.Spans[0].Name != "reduce" || r.Spans[0].Count != 1 {
		t.Errorf("spans = %+v", r.Spans)
	}
	var hist *HistStats
	for i := range r.Histograms {
		if r.Histograms[i].Name == "req_table_occupancy" {
			hist = &r.Histograms[i]
		}
	}
	if hist == nil || hist.Count != 100 {
		t.Fatalf("req_table_occupancy missing or wrong count: %+v", hist)
	}

	// JSON round-trip.
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["comp_merge_hits"] != 90 {
		t.Errorf("round-trip lost comp_merge_hits: %+v", back.Counters)
	}
	if !reflect.DeepEqual(back.Spans, r.Spans) {
		t.Errorf("round-trip spans = %+v, want %+v", back.Spans, r.Spans)
	}

	// Text rendering mentions the populated sections.
	buf.Reset()
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counters:", "rates:", "spans:", "histograms:", "comp_events", "merge_key_reject_rate", "sim_pending_peak"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestNamesComplete guards the enum/name tables against drift.
func TestNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		n := c.String()
		if n == "" || n == "unknown_counter" {
			t.Errorf("counter %d has no name", c)
		}
		if seen[n] {
			t.Errorf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
	for h := Hist(0); h < NumHists; h++ {
		if h.String() == "" || h.String() == "unknown_hist" {
			t.Errorf("hist %d has no name", h)
		}
	}
}

func TestConcurrentSink(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Inc(CompEvents)
				s.Observe(HistSimQueueDepth, int64(i&15))
				s.SetMax(CompReqPeak, int64(i))
			}
		}()
	}
	wg.Wait()
	if got := s.Value(CompEvents); got != 8000 {
		t.Errorf("concurrent Inc lost updates: %d", got)
	}
	if got := s.HistCount(HistSimQueueDepth); got != 8000 {
		t.Errorf("concurrent Observe lost updates: %d", got)
	}
	if got := s.Value(CompReqPeak); got != 999 {
		t.Errorf("concurrent SetMax = %d, want 999", got)
	}
}
