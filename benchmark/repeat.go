package main

// Repeatability tooling. Both modes run the benchmark the way its consumer
// does — one process per (workload, seed), seeds 1..N, the run length taken
// from BENCHMARK.json — and look at each end-to-end metric's median over the
// N runs and its spread: the distance between the first and third quartile
// as a share of the median.
//
//	-calibrate N     one set of runs; writes into BENCHMARK.json, per metric,
//	                 max(floor, 3 × the widest spread seen on any workload),
//	                 capped at 0.25
//	-check-repeat N  two sets of runs of the same code; fails if a spread
//	                 exceeds its bound (setup_s excepted), if the second
//	                 median is worse than the first by more than the bound,
//	                 or if an exact metric differs at all

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchFile mirrors BENCHMARK.json, keys in file order.
type benchFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []boundedInfo  `json:"end_to_end"`
	PerLayer   []metricInfo   `json:"per_layer"`
}

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricInfo struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedInfo struct {
	metricInfo
	Bound float64 `json:"bound"`
}

func readBenchFile(path string) (benchFile, error) {
	var bf benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// boundFloor is the regression bound a metric starts from; calibration only
// ever widens it. Sizes are exact for a fixed seed and move by well under
// 0.1 % across seeds (timing payload varints).
func boundFloor(name string) float64 {
	switch name {
	case "setup_s":
		return 0.25
	case "alloc_mb_per_op":
		return 0.05
	case "encoded_bytes", "archive_bytes_per_run":
		return 0.01
	}
	return 0.10
}

// set is metric → workload → one value per seed.
type set map[string]map[string][]float64

// runSet runs every workload once per seed in 1..n, each in its own process.
func runSet(bf benchFile, n int) (set, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := set{}
	for _, w := range bf.Workloads {
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				return nil, fmt.Errorf("%s seed %d: last line: %w", w.Name, seed, err)
			}
			if !rep.Correct {
				return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", w.Name, seed, rep.Failed, rep.Attempted)
			}
			for name, mv := range rep.Metrics {
				if out[name] == nil {
					out[name] = map[string][]float64{}
				}
				out[name][w.Name] = append(out[name][w.Name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w.Name, seed)
		}
	}
	return out, nil
}

// spread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4), which is what the consumer computes.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / q(2)
}

func printSet(bf benchFile, s set) {
	for _, m := range bf.EndToEnd {
		for _, w := range bf.Workloads {
			v := s[m.Name][w.Name]
			fmt.Printf("%-24s %-18s median %-12s spread %6.2f %%  bound %5.1f %%\n",
				m.Name, w.Name, formatValue(median(v)), 100*spread(v), 100*m.Bound)
		}
	}
}

func repeatability(path string, calibrateN, checkN int) error {
	bf, err := readBenchFile(path)
	if err != nil {
		return err
	}
	if calibrateN > 0 {
		s, err := runSet(bf, calibrateN)
		if err != nil {
			return err
		}
		for i := range bf.EndToEnd {
			m := &bf.EndToEnd[i]
			widest := 0.0
			for _, v := range s[m.Name] {
				widest = math.Max(widest, spread(v))
			}
			m.Bound = math.Min(0.25, math.Max(boundFloor(m.Name), math.Ceil(300*widest)/100))
		}
		printSet(bf, s)
		data, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}

	first, err := runSet(bf, checkN)
	if err != nil {
		return err
	}
	second, err := runSet(bf, checkN)
	if err != nil {
		return err
	}
	fmt.Println("first set")
	printSet(bf, first)
	fmt.Println("second set")
	printSet(bf, second)
	bad := 0
	for _, m := range bf.EndToEnd {
		for _, w := range bf.Workloads {
			a, b := first[m.Name][w.Name], second[m.Name][w.Name]
			for _, v := range [][]float64{a, b} {
				if sp := spread(v); m.Name != "setup_s" && sp > m.Bound {
					fmt.Printf("FAIL %s %s: spread %.2f %% exceeds bound %.1f %%\n", m.Name, w.Name, 100*sp, 100*m.Bound)
					bad++
				}
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			if worse > m.Bound {
				fmt.Printf("FAIL %s %s: second median %s is %.2f %% worse than first %s\n",
					m.Name, w.Name, formatValue(mb), 100*worse, formatValue(ma))
				bad++
			}
			if m.Unit == "B" {
				for i := range a {
					if a[i] != b[i] {
						fmt.Printf("FAIL %s %s seed %d: %v then %v, must repeat exactly\n", m.Name, w.Name, i+1, a[i], b[i])
						bad++
					}
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d repeatability checks failed", bad)
	}
	fmt.Println("repeatability: both sets within every bound")
	return nil
}
