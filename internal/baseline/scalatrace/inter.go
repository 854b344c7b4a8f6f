package scalatrace

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/rankset"
)

// MergedTrace is the job-wide compressed trace of a dynamic-only tool.
type MergedTrace struct {
	Mode     Mode
	NumRanks int
	Terms    []*Term
	Events   int64
}

// fromRank annotates a per-rank trace with its rank set.
func fromRank(t *RankTrace) *MergedTrace {
	rs := rankset.Single(t.Rank)
	var annotate func(ts []*Term)
	annotate = func(ts []*Term) {
		for _, term := range ts {
			term.Ranks = rs
			if term.IsRSD {
				annotate(term.Body)
			}
		}
	}
	annotate(t.Terms)
	return &MergedTrace{NumRanks: 1, Terms: t.Terms, Events: t.Events}
}

// PairMerge aligns two compressed term lists with a longest-common-
// subsequence dynamic program — the O(n²) step the paper contrasts with
// CYPRESS's O(n) lockstep walk — and merges matched terms. Unmatched terms
// are kept with their own rank annotations, interleaved in alignment order.
func PairMerge(a, b *MergedTrace, mode Mode) *MergedTrace {
	n, m := len(a.Terms), len(b.Terms)
	eq := equalExact
	if mode == V2 {
		eq = equalElastic
	}
	// dp[i][j] = LCS length of a.Terms[i:], b.Terms[j:].
	dp := make([][]int32, n+1)
	flat := make([]int32, (n+1)*(m+1))
	for i := range dp {
		dp[i] = flat[i*(m+1) : (i+1)*(m+1)]
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if eq(a.Terms[i], b.Terms[j]) {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	out := make([]*Term, 0, n+m-int(dp[0][0]))
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case eq(a.Terms[i], b.Terms[j]) && dp[i][j] == dp[i+1][j+1]+1:
			out = append(out, mergeTerm(a.Terms[i], b.Terms[j], mode))
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			out = append(out, a.Terms[i])
			i++
		default:
			out = append(out, b.Terms[j])
			j++
		}
	}
	out = append(out, a.Terms[i:]...)
	out = append(out, b.Terms[j:]...)
	return &MergedTrace{
		Mode:     mode,
		NumRanks: a.NumRanks + b.NumRanks,
		Terms:    out,
		Events:   a.Events + b.Events,
	}
}

// mergeTerm unifies two matched terms: rank sets union, elastic data folds.
func mergeTerm(a, b *Term, mode Mode) *Term {
	fold(a, b, foldModeInter(mode))
	a.Ranks = rankset.Union(a.Ranks, b.Ranks)
	if a.IsRSD {
		for i := range a.Body {
			a.Body[i].Ranks = a.Ranks
		}
	}
	return a
}

// foldModeInter: V1 inter-merging still has to fold per-rank count
// sequences; parameters are exact-equal by construction.
func foldModeInter(m Mode) Mode { return m }

// MergeAll combines per-rank traces with a binary reduction tree, as
// ScalaTrace's radix-tree gather does. The per-pair cost is the quadratic
// alignment above; the paper measures exactly this growth.
func MergeAll(traces []*RankTrace, mode Mode, workers int) (*MergedTrace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("scalatrace: no traces")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ms := make([]*MergedTrace, len(traces))
	for i, t := range traces {
		ms[i] = fromRank(t)
	}
	sem := make(chan struct{}, workers)
	var reduce func(lo, hi int) *MergedTrace
	reduce = func(lo, hi int) *MergedTrace {
		if hi-lo == 1 {
			return ms[lo]
		}
		mid := (lo + hi) / 2
		var left, right *MergedTrace
		var wg sync.WaitGroup
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				left = reduce(lo, mid)
			}()
		default:
			left = reduce(lo, mid)
		}
		right = reduce(mid, hi)
		wg.Wait()
		return PairMerge(left, right, mode)
	}
	return reduce(0, len(ms)), nil
}

// SizeBytes reports the serialized size of the merged trace.
func (m *MergedTrace) SizeBytes() int64 { return SizeBytes(m.Terms) }
