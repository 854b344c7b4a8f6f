package cypress

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// deletedNames lists code that was replaced by one path and must not grow
// back outside the files that still define it. Each pattern is matched
// against every non-comment line of the module's non-test .go files.
var deletedNames = []struct {
	why     string
	pattern *regexp.Regexp
	allowed []string // files (slash paths from the module root) that may match
}{
	{
		// One replay path in production: the rankView walk, the materializing
		// replay.Sequence and the slice-fed simmpi.Simulate are the oracles
		// tests compare the Streamer against.
		why:     "reference replay path outside tests",
		pattern: regexp.MustCompile(`ForRank\(|replay\.Sequence\(|simmpi\.Simulate\(`),
		allowed: []string{"internal/merge/merge.go", "internal/replay/replay.go", "internal/simmpi/simmpi.go"},
	},
	{
		// One read stack: a trace is a []byte, blockio.Unwrap is the only
		// container reader and the merge decoder runs on a slice cursor.
		why:     "streaming read stack",
		pattern: regexp.MustCompile(`blockio\.(NewReader|Sniff|SniffReader|ReadIndex)\(|merge\.DecodePar\(|byteScanner|io\.ByteReader`),
	},
	{
		// One reconstruction: merge.Plan.Reassemble. The two-pass pair it
		// replaced lives on in delta_test.go as the fused pass's reference.
		why:     "two-pass reassembly",
		pattern: regexp.MustCompile(`PatchPayload|JoinEncoded|uvarintWords`),
	},
	{
		// One performance record: the ledger in benchmark/ times the
		// pipeline; internal/bench regenerates the paper and runs one
		// observed pass. The micro-report trajectory, its single-run diff
		// gate and the experiment cell fan-out are gone.
		why:     "micro-report harness",
		pattern: regexp.MustCompile(`ParseBenchJSON|MicroReport|benchdiff|ParallelCells|observePipeline`),
	},
	{
		// One switch for observability: every layer reads the sink and
		// recorder obs.Attach installed, and obs.Capture is the commands'
		// one capture path. The per-layer setters, the fan-out lists that
		// had to name the same packages and the per-command copies are gone.
		why:     "per-layer observability wiring",
		pattern: regexp.MustCompile(`SetObs\(|SetTrace\(|EnableObs\(|EnableTrace\(|ServeDebugTrace|writeTraceFile|obsSink`),
	},
	{
		// One way a trace leaves a Result: WriteTrace(w, Format). The
		// per-layout writers, the indexed-gzip encoder nothing asks for and
		// the section-index probe that only cypressstat -rank called are gone.
		why:     "per-layout trace writers",
		pattern: regexp.MustCompile(`WriteTraceIndexed|WriteTraceBlocked|EncodeIndexedGzip|HasSectionIndex|projectionStats`),
	},
	{
		// The facade's forwarders: callers pass PredictPar and CommMatrixPar
		// the 0 the forwarders passed, and the workload registry is
		// cypress.Workload or npb.Names.
		why:     "facade forwarders",
		pattern: regexp.MustCompile(`\b(Predict|CommMatrix|Workloads)\(\)`),
	},
}

// TestDeletedNamesStayDeleted scans the root module's non-test Go files
// (benchmark/ is its own module) for the patterns in deletedNames.
func TestDeletedNamesStayDeleted(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (path == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel := filepath.ToSlash(path)
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(text), "//") {
				continue
			}
			for _, dn := range deletedNames {
				if dn.pattern.MatchString(text) && !slices.Contains(dn.allowed, rel) {
					t.Errorf("%s:%d: %s: %s", rel, line, dn.why, strings.TrimSpace(text))
				}
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}
