package cypress

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/obs"
)

// TestCorpusFacade exercises the top-level corpus API end to end: ingest of
// traced runs, structural dedup across runs, byte-identical reconstruction,
// warm cache sharing (including the memoized streamer), and obs visibility.
func TestCorpusFacade(t *testing.T) {
	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)

	p, err := Compile(jacobi)
	if err != nil {
		t.Fatal(err)
	}
	// Two runs of the same program with shifted network constants: same
	// structure, different timing payload.
	var results []*Result
	var encs [][]byte
	for run := 0; run < 2; run++ {
		params := mpisim.DefaultParams()
		params.NoiseFrac = 0
		params.LatencyNS += float64(3 * run)
		res, err := p.Trace(7, Options{Params: &params})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := res.WriteTrace(&buf, FormatRaw); err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		encs = append(encs, buf.Bytes())
	}

	fp0, err := StructuralFingerprint(results[0].Merged)
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := StructuralFingerprint(results[1].Merged)
	if err != nil {
		t.Fatal(err)
	}
	if fp0 != fp1 {
		t.Fatalf("structural fingerprints differ across same-workload runs: %016x vs %016x", fp0, fp1)
	}

	c, err := OpenCorpus(t.TempDir(), CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var ids []TraceID
	for i, res := range results {
		id, err := c.Ingest(res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.GetBytes(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, encs[i]) {
			t.Fatalf("run %d: GetBytes differs from standalone encoding", i)
		}
		ids = append(ids, id)
	}
	if ids[0] == ids[1] {
		t.Fatal("distinct runs collided on content address")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Classes != 1 || st.Runs != 2 || st.DeltaRuns != 2 {
		t.Fatalf("stats = %+v, want 1 class / 2 runs / 2 delta runs", st)
	}
	if got := c.Hashes(); len(got) != 2 {
		t.Fatalf("Hashes() = %v, want 2 ids", got)
	}

	// First Get decodes (miss); the Result must replay identically to a
	// decode of the standalone encoding (the codec normalizes derived
	// stddev fields, so the in-memory pre-encode tree is not the baseline).
	r0, release0, err := c.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	opened, err := OpenTrace(encs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := opened.Replay(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r0.Replay(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("corpus-served replay differs from original run")
	}

	// Second Get is warm: it must share the same decoded tree and the same
	// memoized streamer as the first.
	r1, release1, err := c.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if r0.Merged != r1.Merged {
		t.Fatal("warm Get did not share the cached decode")
	}
	if r0.Streamer() != r1.Streamer() {
		t.Fatal("corpus-served results do not share the memoized streamer")
	}
	if _, err := r1.PredictPar(0); err != nil {
		t.Fatal(err)
	}
	release1()
	release0()

	if s.Value(obs.CorpusIngests) != 2 || s.Value(obs.CorpusDeltaRuns) != 2 {
		t.Errorf("corpus counters: ingests=%d delta=%d, want 2/2",
			s.Value(obs.CorpusIngests), s.Value(obs.CorpusDeltaRuns))
	}
	if s.Value(obs.CorpusCacheHits) != 1 || s.Value(obs.CorpusCacheMisses) != 1 {
		t.Errorf("cache counters: hits=%d misses=%d, want 1/1",
			s.Value(obs.CorpusCacheHits), s.Value(obs.CorpusCacheMisses))
	}
}
