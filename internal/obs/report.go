package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	ftrace "repro/internal/obs/trace"
)

// Report is a point-in-time snapshot of a Sink, serializable to JSON and
// renderable as text. Counters with value zero are omitted so quiet stages do
// not drown the interesting ones; derived Rates are recomputed at snapshot
// time from the counters they summarize. The sink has no clock: the stage
// times are the flight recorder's totals, which the caller that holds the
// recorder puts in Spans.
type Report struct {
	// Counters holds every non-zero counter keyed by its stable name.
	Counters map[string]int64 `json:"counters"`
	// Rates holds derived hit/fold rates in [0,1] (and values per stride
	// run), keyed by a stable name. Only rates whose denominators are
	// non-zero appear.
	Rates map[string]float64 `json:"rates,omitempty"`
	// Spans holds the flight recorder's per-name totals.
	Spans ftrace.Totals `json:"spans,omitempty"`
	// Histograms lists histograms with at least one observation.
	Histograms []HistStats `json:"histograms,omitempty"`
}

// HistStats summarizes one histogram: observation count, value sum/mean, and
// interpolated p50/p95/p99 estimates derived from the power-of-two buckets.
// The quantiles place the target rank inside its bucket and interpolate
// linearly across the bucket's value range, so they are estimates with
// one-bucket resolution (a factor-of-two band), not exact order statistics.
type HistStats struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket: N observations <= Le (and
// greater than the previous bucket's bound).
type BucketCount struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// ratio returns n/d, reporting ok=false when the denominator is zero.
func ratio(n, d int64) (float64, bool) {
	if d == 0 {
		return 0, false
	}
	return float64(n) / float64(d), true
}

// Report snapshots the sink. A nil sink yields an empty (but non-nil) report.
func (s *Sink) Report() *Report {
	r := &Report{Counters: map[string]int64{}, Rates: map[string]float64{}}
	if s == nil {
		return r
	}
	var vals [NumCounters]int64
	for c := Counter(0); c < NumCounters; c++ {
		vals[c] = s.counters[c].Load()
		if vals[c] != 0 {
			r.Counters[c.String()] = vals[c]
		}
	}
	addRate := func(name string, n, d int64) {
		if v, ok := ratio(n, d); ok {
			r.Rates[name] = v
		}
	}
	addRate("comp_fold_rate",
		vals[CompMergeHits]+vals[CompPeerPatternFolds]+vals[CompCycleFolds], vals[CompEvents])
	// Every probe of a right entry against a left one is settled by the key
	// or by a walk. A high key-reject rate reads "the groups differ in an
	// operation parameter and cannot fold"; walk rejects with no key rejects
	// to explain them, "they differ only in peer".
	addRate("merge_key_reject_rate", vals[MergeKeyRejects], vals[MergeKeyRejects]+vals[MergeWalks])
	skHits := vals[ReplayRankMemoHits] + vals[ReplayClassReuses]
	addRate("replay_skeleton_hit_rate", skHits, skHits+vals[ReplaySkeletonBuilds])
	addRate("stride_values_per_run", vals[StrideValues], vals[StrideRuns])
	for h := Hist(0); h < NumHists; h++ {
		hs := s.histStats(h)
		if hs.Count == 0 {
			continue
		}
		r.Histograms = append(r.Histograms, hs)
	}
	return r
}

// histStats summarizes one histogram.
func (s *Sink) histStats(h Hist) HistStats {
	hist := &s.hists[h]
	out := HistStats{Name: h.String(), Sum: hist.sum.Load()}
	var counts [HistBuckets]int64
	for i := range counts {
		counts[i] = hist.buckets[i].Load()
		out.Count += counts[i]
	}
	if out.Count == 0 {
		return out
	}
	out.Mean = float64(out.Sum) / float64(out.Count)
	out.P50 = quantileEstimate(&counts, out.Count, 0.50)
	out.P95 = quantileEstimate(&counts, out.Count, 0.95)
	out.P99 = quantileEstimate(&counts, out.Count, 0.99)
	for i, n := range counts {
		if n != 0 {
			out.Buckets = append(out.Buckets, BucketCount{Le: BucketUpper(i), N: n})
		}
	}
	return out
}

// quantileEstimate interpolates the q-quantile from power-of-two bucket
// counts: it walks to the bucket holding the target rank, then interpolates
// linearly between the bucket's lower and upper value bounds by the rank's
// position among the bucket's observations. Bucket 0 (v <= 0) estimates 0;
// the unbounded last bucket interpolates toward twice its lower bound,
// since its true upper edge carries no information.
func quantileEstimate(counts *[HistBuckets]int64, total int64, q float64) float64 {
	if total <= 0 {
		return 0
	}
	target := q * float64(total-1) // continuous rank in [0, total-1]
	var before int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		hi := float64(before+n) - 1 // last rank covered by this bucket
		if target <= hi || before+n == total {
			if i == 0 {
				return 0
			}
			lower := float64(BucketUpper(i - 1))
			upper := float64(BucketUpper(i))
			if i == HistBuckets-1 {
				upper = 2 * lower
			}
			frac := (target - float64(before) + 1) / float64(n)
			if frac > 1 {
				frac = 1
			}
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(upper-lower)
		}
		before += n
	}
	return float64(BucketUpper(HistBuckets - 1))
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report as aligned human-readable text.
func (r *Report) WriteText(w io.Writer) error {
	if len(r.Counters) == 0 && len(r.Spans) == 0 && len(r.Histograms) == 0 {
		_, err := fmt.Fprintln(w, "obs: no metrics recorded")
		return err
	}
	// Counters in enum order (stable, stage-grouped), skipping zeros.
	if len(r.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for c := Counter(0); c < NumCounters; c++ {
			if v, ok := r.Counters[c.String()]; ok {
				fmt.Fprintf(w, "  %-32s %12d\n", c.String(), v)
			}
		}
	}
	if len(r.Rates) > 0 {
		fmt.Fprintln(w, "rates:")
		keys := make([]string, 0, len(r.Rates))
		for k := range r.Rates {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-32s %12.4f\n", k, r.Rates[k])
		}
	}
	if err := r.Spans.WriteText(w); err != nil {
		return err
	}
	if len(r.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		fmt.Fprintf(w, "  %-24s %10s %12s %12s %12s %12s\n", "histogram", "count", "mean", "p50", "p95", "p99")
		for _, h := range r.Histograms {
			fmt.Fprintf(w, "  %-24s %10d %12.1f %12.1f %12.1f %12.1f\n",
				h.Name, h.Count, h.Mean, h.P50, h.P95, h.P99)
		}
	}
	return nil
}
