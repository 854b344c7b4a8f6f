// Package timestat records communication-time statistics for compressed trace
// records. The paper (Section IV-A) supports two modes: mean plus standard
// deviation of repeated operations, and a histogram of the time distribution.
// Both are implemented here; Stat always maintains Welford moments and can
// optionally carry a log₂-bucketed histogram.
package timestat

import (
	"fmt"
	"math"
	"strings"
)

// HistBuckets is the number of log₂ histogram buckets. Bucket i covers
// durations in [2^i, 2^(i+1)) nanoseconds; bucket 0 also absorbs sub-ns
// values. 48 buckets cover ~3 days, far beyond any single MPI operation.
const HistBuckets = 48

// Mode selects how time is recorded.
type Mode uint8

const (
	// ModeMeanStddev records running mean and standard deviation only.
	ModeMeanStddev Mode = iota
	// ModeHistogram additionally maintains a log-scale histogram.
	ModeHistogram
)

// Stat accumulates durations (in nanoseconds) with Welford's online
// algorithm, so merging records never needs the raw samples.
type Stat struct {
	N    int64
	Mean float64
	m2   float64
	Min  float64
	Max  float64
	Hist []uint32 // nil unless histogram mode
}

// New returns a heap-allocated Stat in the given mode. Hot paths that embed
// stats by value should use Make or Init instead, which allocate nothing in
// ModeMeanStddev.
func New(mode Mode) *Stat {
	s := &Stat{}
	s.Init(mode)
	return s
}

// Make returns a ready-to-use Stat value. In ModeMeanStddev it performs no
// heap allocation, which is what lets trace records embed their accumulators
// by value instead of pointing at two heap objects per record.
func Make(mode Mode) Stat {
	var s Stat
	s.Init(mode)
	return s
}

// Init (re)initializes s in place for the given mode, reusing an existing
// histogram buffer when present.
func (s *Stat) Init(mode Mode) {
	hist := s.Hist
	*s = Stat{Min: math.Inf(1), Max: math.Inf(-1)}
	if mode == ModeHistogram {
		if hist != nil {
			for i := range hist {
				hist[i] = 0
			}
			s.Hist = hist
		} else {
			s.Hist = make([]uint32, HistBuckets)
		}
	}
}

// MeanSeeded returns a value-mode stat holding n samples pinned at mean, used
// when materializing partial cycle repetitions whose true samples were folded
// into the block records.
func MeanSeeded(mean float64, n int64) Stat {
	return Stat{N: n, Mean: mean, Min: mean, Max: mean}
}

// Add records one duration in nanoseconds.
func (s *Stat) Add(ns float64) {
	s.N++
	d := ns - s.Mean
	s.Mean += d / float64(s.N)
	s.m2 += d * (ns - s.Mean)
	if ns < s.Min {
		s.Min = ns
	}
	if ns > s.Max {
		s.Max = ns
	}
	if s.Hist != nil {
		s.Hist[bucket(ns)]++
	}
}

func bucket(ns float64) int {
	if ns < 1 {
		return 0
	}
	b := int(math.Log2(ns))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// BucketLow returns the lower bound (ns) of histogram bucket i.
func BucketLow(i int) float64 {
	return math.Exp2(float64(i))
}

// Stddev returns the sample standard deviation, 0 for fewer than two samples.
func (s *Stat) Stddev() float64 {
	if s.N < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.N-1))
}

// Sum returns the total accumulated time in nanoseconds.
func (s *Stat) Sum() float64 { return s.Mean * float64(s.N) }

// Merge folds o into s. Both must use the same mode; merging a histogram
// stat into a non-histogram stat drops the histogram, never the moments.
func (s *Stat) Merge(o *Stat) {
	if o.N == 0 {
		return
	}
	if s.N == 0 {
		s.N, s.Mean, s.m2, s.Min, s.Max = o.N, o.Mean, o.m2, o.Min, o.Max
	} else {
		// Chan et al. parallel combination of Welford moments.
		n1, n2 := float64(s.N), float64(o.N)
		delta := o.Mean - s.Mean
		tot := n1 + n2
		s.Mean += delta * n2 / tot
		s.m2 += o.m2 + delta*delta*n1*n2/tot
		s.N += o.N
		if o.Min < s.Min {
			s.Min = o.Min
		}
		if o.Max > s.Max {
			s.Max = o.Max
		}
	}
	if s.Hist != nil && o.Hist != nil {
		for i := range s.Hist {
			s.Hist[i] += o.Hist[i]
		}
	}
}

// Clone returns a deep copy.
func (s *Stat) Clone() *Stat {
	c := *s
	if s.Hist != nil {
		c.Hist = append([]uint32(nil), s.Hist...)
	}
	return &c
}

// SizeBytes estimates the serialized footprint: the five moments, plus the
// non-zero histogram buckets when present.
func (s *Stat) SizeBytes() int64 {
	n := int64(5 * 8)
	for _, h := range s.Hist {
		if h != 0 {
			n += 6 // bucket index + varint count
		}
	}
	return n
}

// String summarizes the stat for dumps.
func (s *Stat) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.0fns sd=%.0fns", s.N, s.Mean, s.Stddev())
	if s.Hist != nil {
		nz := 0
		for _, h := range s.Hist {
			if h != 0 {
				nz++
			}
		}
		fmt.Fprintf(&b, " hist(%d buckets)", nz)
	}
	return b.String()
}
