package trace_test

// Fixture capture test: run the 64-rank pipeline pass that backs
// `cypressbench -exp none -trace` and assert the capture the CI job ships to
// Perfetto is complete and structurally rich — every stage category present, real
// per-worker swimlanes for the parallel stages, zero drops, and a clean
// export → parse → validate round-trip. This is the in-process twin of the
// CI fixture job's CLI-level check (cypressstat -timeline -check).

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
)

func TestTracedPipelineFixtureCapture(t *testing.T) {
	rec := ftrace.New(0)
	obs.Attach(nil, rec)
	err := bench.Pipeline()
	obs.Attach(nil, nil)
	if err != nil {
		t.Fatalf("Pipeline: %v", err)
	}
	if d := rec.Drops(); d != 0 {
		t.Fatalf("fixture capture dropped %d of %d events; ring too small for the fixture", d, rec.Total())
	}
	if rec.Total() == 0 {
		t.Fatal("traced pipeline recorded nothing")
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	c, err := ftrace.ReadChromeJSON(&buf)
	if err != nil {
		t.Fatalf("ReadChromeJSON: %v", err)
	}
	if err := c.Validate(true); err != nil {
		t.Fatalf("fixture capture invalid: %v", err)
	}

	// The acceptance bar: at least 6 distinct stage categories in one capture.
	cats := c.Cats()
	if len(cats) < 6 {
		t.Fatalf("capture has %d categories (%v), want >= 6", len(cats), cats)
	}
	for _, want := range []string{"compress", "merge", "codec", "blockio.enc", "blockio.dec", "corpus", "replay", "sim"} {
		found := false
		for _, got := range cats {
			if got == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("category %q missing from fixture capture (have %v)", want, cats)
		}
	}

	// Parallel stages must show real per-worker swimlanes, not one collapsed
	// lane. The pipeline pins 4 enc / 2 dec workers and frames small enough
	// that several flow through each. The simulator is one sequential sweep,
	// so "sim" is only required as a category above.
	if lanes := c.Lanes("blockio.enc"); len(lanes) < 2 {
		t.Errorf("blockio.enc has lanes %v, want >= 2 worker lanes", lanes)
	}
	if lanes := c.Lanes("blockio.dec"); len(lanes) < 2 {
		t.Errorf("blockio.dec has lanes %v, want >= 2 worker lanes", lanes)
	}

	// Every lane of every category must carry thread_name metadata so
	// Perfetto renders named swimlanes.
	for _, cat := range cats {
		var pid int64 = -1
		for _, e := range c.Events {
			if e.Cat == cat {
				pid = e.PID
				break
			}
		}
		if c.CatNames[pid] != cat {
			t.Errorf("category %q (pid %d) missing process_name metadata", cat, pid)
		}
	}
}
