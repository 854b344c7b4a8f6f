package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units (smoke_test.go checks that they agree); README.md says what each
// one measures.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the pipeline sees; reported by an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pipeline_s", "s"},
	{"capture_ns_per_event", "ns"},
	{"write_s", "s"},
	{"open_s", "s"},
	{"rank_query_s", "s"},
	{"replay_mevents_per_s", "Mevents/s"},
	{"predict_s", "s"},
	{"encoded_bytes", "B"},
	{"archive_bytes_per_run", "B"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer is reported by a traced run. Metrics in spanMetrics are the
// median duration of one harness-side span; the rest are counts taken at the
// same boundaries, probes of entry points the op does not call directly, or
// set-up costs.
var perLayer = []metricDef{
	{"cst.compile_s", "s"},
	{"cst.vertices", "count"},
	{"mpisim.record_s", "s"},
	{"ctt.compress_s", "s"},
	{"ctt.finish_s", "s"},
	{"ctt.ns_per_event", "ns"},
	{"ctt.allocs_per_event", "count"},
	{"ctt.events", "count"},
	{"merge.all_s", "s"},
	{"merge.all_wN_s", "s"},
	{"merge.allocs", "count"},
	{"merge.entries", "count"},
	{"merge.encode_s", "s"},
	{"merge.encode_indexed_s", "s"},
	{"merge.encode_gzip_s", "s"},
	{"merge.decode_s", "s"},
	{"merge.select_s", "s"},
	{"merge.encoded_bytes", "B"},
	{"merge.index_bytes", "B"},
	{"merge.gzip_bytes", "B"},
	{"blockio.encode_s", "s"},
	{"blockio.encode_wN_s", "s"},
	{"blockio.decode_s", "s"},
	{"blockio.bytes", "B"},
	{"corpus.ingest_s", "s"},
	{"corpus.close_s", "s"},
	{"corpus.open_s", "s"},
	{"corpus.get_cold_s", "s"},
	{"corpus.get_warm_s", "s"},
	{"corpus.get_bytes_s", "s"},
	{"corpus.get_projected_s", "s"},
	{"corpus.gc_s", "s"},
	{"corpus.disk_bytes", "B"},
	{"corpus.dedup_ratio", "ratio"},
	{"corpus.delta_runs", "count"},
	{"replay.prepare_s", "s"},
	{"replay.all_s", "s"},
	{"replay.rank_s", "s"},
	{"replay.commmatrix_s", "s"},
	{"replay.events", "count"},
	{"replay.classes", "count"},
	{"simmpi.predict_s", "s"},
	{"simmpi.simulate_s", "s"},
	{"simmpi.simulate_wN_s", "s"},
	{"simmpi.events_per_s", "1/s"},
	{"simmpi.predicted_ns", "ns"},
	{"bench.unattributed_s", "s"},
	{"bench.trace_overhead_frac", "ratio"},
}

// spanMetrics maps a per-layer timing to the span it is the median of.
var spanMetrics = map[string]string{
	"ctt.compress_s":         "ctt.compress",
	"ctt.finish_s":           "ctt.finish",
	"merge.all_s":            "merge.all",
	"merge.encode_s":         "merge.encode",
	"merge.encode_indexed_s": "merge.encode_indexed",
	"blockio.encode_s":       "blockio.encode",
	"corpus.ingest_s":        "corpus.ingest",
	"corpus.close_s":         "corpus.seal",
	"corpus.open_s":          "corpus.open",
	"corpus.get_cold_s":      "corpus.get_cold",
	"corpus.get_warm_s":      "corpus.get_warm",
	"corpus.get_bytes_s":     "corpus.get_bytes",
	"corpus.get_projected_s": "corpus.get_projected",
	"corpus.gc_s":            "corpus.gc",
	"replay.all_s":           "replay.all",
	"replay.rank_s":          "replay.rank",
	"replay.commmatrix_s":    "replay.commmatrix",
	"simmpi.predict_s":       "simmpi.predict",
}

// exact lists the metrics that must read the same on every op of a run.
var exact = []string{
	"encoded_bytes", "archive_bytes_per_run",
	"ctt.events", "merge.entries", "merge.encoded_bytes", "merge.index_bytes",
	"blockio.bytes", "corpus.disk_bytes", "corpus.delta_runs",
	"replay.events", "replay.classes",
}

// median of v; NaN when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tail returns the highest percentile of v that still has at least ten
// samples beyond it, and its value; ok is false when the sample is too small
// for any percentile above the median.
func tail(v []float64) (pct, val float64, ok bool) {
	n := len(v)
	if n < 21 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return 100 * float64(n-10) / float64(n), s[n-11], true
}

// printTable writes one line per metric: median, tail percentile and count.
func printTable(w io.Writer, defs []metricDef, s series) {
	for _, d := range defs {
		v := s[d.name]
		line := fmt.Sprintf("  %-28s %14s %-10s n=%d", d.name, formatValue(median(v)), d.unit, len(v))
		if pct, val, ok := tail(v); ok && d.unit == "s" {
			line += fmt.Sprintf("  p%.1f=%s", pct, formatValue(val))
		}
		fmt.Fprintln(w, line)
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
