package inspect

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	cypress "repro"
	"repro/internal/npb"
)

var update = flag.Bool("update", false, "rewrite golden files")

// jacobi is the canonical open-chain stencil fixture shared with the root
// package's tests: a 10-iteration nearest-neighbor exchange plus a reduce.
const jacobi = `
func main() {
	for var k = 0; k < 10; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
		compute(100000);
	}
	reduce(0, 8);
}`

// analyzeFixture traces jacobi at n ranks and analyzes the merged tree.
func analyzeFixture(t *testing.T, n int) *Analysis {
	t.Helper()
	return analyzeSource(t, jacobi, n)
}

// analyzeSource traces src at n ranks and analyzes the merged tree.
func analyzeSource(t *testing.T, src string, n int) *Analysis {
	t.Helper()
	p, err := cypress.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Trace(n, cypress.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(res.Merged)
}

// checkGolden compares got against testdata/name, rewriting under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/inspect -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGolden pins the inspector's text and JSON output on the 7- and 64-rank
// jacobi fixtures and on CG at 64 ranks, whose butterfly leaves split into one
// rank group per peer-pattern period (one key per group, one replay shape).
// The analysis reports only structural counts, so the output is byte-stable
// across merge schedules and machines.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		run, file string
		src       string
		n         int
	}{
		{"ranks=7", "jacobi7", jacobi, 7},
		{"ranks=64", "jacobi64", jacobi, 64},
		{"CG/ranks=64", "cg64", npb.CG().Source(64, npb.Small), 64},
	} {
		t.Run(tc.run, func(t *testing.T) {
			a := analyzeSource(t, tc.src, tc.n)
			var txt bytes.Buffer
			if err := a.WriteText(&txt); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.file+".txt", txt.Bytes())
			var js bytes.Buffer
			if err := a.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.file+".json", js.Bytes())
		})
	}
}

// TestGoldenJSONRoundTrips guards the JSON schema: the golden JSON must
// unmarshal back into an Analysis with the same summary.
func TestGoldenJSONRoundTrips(t *testing.T) {
	a := analyzeFixture(t, 7)
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Analysis
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Summary != a.Summary {
		t.Errorf("summary round-trip mismatch:\n got %+v\nwant %+v", back.Summary, a.Summary)
	}
	if len(back.Leaves) != len(a.Leaves) {
		t.Errorf("leaves round-trip: %d vs %d", len(back.Leaves), len(a.Leaves))
	}
}

// TestAnalyzeInvariants cross-checks the analysis against the trace: the
// leaf-table event total must equal the job's event count, and the 64-rank
// stencil must compress into rank-relative records (rel > 0 after merging).
func TestAnalyzeInvariants(t *testing.T) {
	a := analyzeFixture(t, 64)
	var events, rel int64
	for _, l := range a.Leaves {
		events += l.Events
		rel += l.RelEncoded
	}
	if events != a.Summary.EventCount {
		t.Errorf("leaf events sum %d != trace event count %d", events, a.Summary.EventCount)
	}
	if rel == 0 {
		t.Error("no rel-encoded records in a 64-rank stencil merge")
	}
	if a.Summary.EventsPerRecord <= 1 {
		t.Errorf("events/record = %.2f, expected compression", a.Summary.EventsPerRecord)
	}
}
