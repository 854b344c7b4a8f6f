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
		// One representative read: a class decodes its representative once
		// into a merge.Ref, and reassembly copies the Ref's bytes. The cursor
		// that decoded the representative again on every read is gone.
		why:     "per-read representative decode",
		pattern: regexp.MustCompile(`refWord|refRest`),
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
	{
		// One clock: the flight recorder times every stage and the sink only
		// counts. The sink's stage timers and its wall-time histograms timed
		// the same intervals the recorder's spans do.
		why:     "sink clock",
		pattern: regexp.MustCompile(`ObserveSince|MergePairHist|StageStats|obs\.Stage|HistIOCompressNS|HistIOInflateNS|HistMergePairL[1-8]|HistCorpusGetNS|"(io_compress|io_inflate|corpus_get)_ns"|merge_pair_ns_l`),
	},
	{
		// sync.Pool misses follow GC timing, not the run, and the byte
		// ratios divided by every encode rather than the one they compressed.
		why:     "GC-timed pool counters and encode ratios",
		pattern: regexp.MustCompile(`Pool(Gzip|Bufio|Reader|Buffer|Flate|Inflate)(Gets|News)|pool_\w+_(gets|news|hit_rate)|enc_(gzip|blocked)_ratio`),
	},
	{
		// The text timeline renders a parsed capture (Capture.WriteText), and
		// a Report's counters only ever come from the enum.
		why:     "second timeline and foreign-counter paths",
		pattern: regexp.MustCompile(`captureOf|knownCounter`),
	},
	{
		// Exported methods nothing in the module called.
		why:     "dead exported methods",
		pattern: regexp.MustCompile(`\bRewind\(|\bNowNS\(|\bHashShape\(|\bVirtualExit\b|\bTermCount\(`),
	},
	{
		// One merge decision: an unequal invariant key says no, compatible()
		// says yes. The rel/abs fingerprints, the whole-tree span, their fast
		// paths, the toggle that switched them off and their counters are
		// gone.
		why:     "fingerprint merge fast paths",
		pattern: regexp.MustCompile(`FingerprintRel|FingerprintAbs|SpanRel|HashRel|HashAbs|fingerprintEnabled|pairFast|unifyFast|refreshSummary|MergeFPRelHits|MergeTreeFastHits|PairPath`),
	},
	{
		// One resolution: lang.Check gives every call its target, so the
		// interpreter reads a call's Intrinsic instead of asking the table
		// by name.
		why:     "name-keyed intrinsic query",
		pattern: regexp.MustCompile(`IsCommIntrinsic`),
	},
	{
		// One environment: every local lives in a frame slot lang.Check
		// assigned. The interpreter's per-block string-keyed scope and its
		// lookup up the parent chain are gone.
		why:     "string-keyed interpreter scope",
		pattern: regexp.MustCompile(`type scope\b|\*scope\b|&scope\{|env\.lookup\(`),
	},
	{
		// One verdict on deadlock: mpisim counts its running ranks, so no
		// rank running and none able to choose is exact. The sampling
		// watchdog and its blocked/progress bookkeeping are gone.
		why:     "wall-clock deadlock detection",
		pattern: regexp.MustCompile(`watchdog|markBlocked|noteProgress|time\.After\(`),
	},
	{
		// One read per projection: a projected decode keeps no encoding and
		// serves its selected ranks alone. The fill-on-first-touch arena, its
		// lock and publish array, and the calls that filled through it are
		// gone.
		why:     "lazy payload fill",
		pattern: regexp.MustCompile(`lazyPayloads|lazySlot|entryData\(|Materialize\(|SelLazyFill|NameLazyFill`),
	},
	{
		// One record allocator per compressor: the rank's arena, which takes
		// back what a cycle fold drops. The per-vertex slab that rounded
		// every leaf up to its next chunk, and the VData method that carved
		// from it, are gone.
		why:     "per-vertex record slab",
		pattern: regexp.MustCompile(`recordSlab|recordChunkMax|\.NewRecord\(`),
	},
	{
		// Reads inflate on the caller's goroutine, and blockio owns the two
		// codec pools a workload measures (its flate writer and inflate
		// reader). The shared pool package, its gzip, bufio and buffer pools,
		// and the inflate lanes the pipeline pass asked for are gone.
		why:     "codec buffer pools and inflate lanes",
		pattern: regexp.MustCompile(`internal/encpool|GetBufio|GetBuffer|GetGzip|pipeDecWorkers`),
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
