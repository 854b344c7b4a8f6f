package main

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/npb"
)

// small shrinks a workload to 16 ranks at npb.Small so a run takes well
// under a second; the op keeps its shape.
func small(w workload) workload {
	w.ranks, w.scale = 16, npb.Small
	return w
}

// TestSmoke runs every workload in both modes and checks that each metric
// BENCHMARK.json names comes out exactly once, with the unit it declares,
// and that the oracle passes. It asserts nothing about timings.
func TestSmoke(t *testing.T) {
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, info := range bf.Workloads {
		spec, ok := findWorkload(info.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", info.Name)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			cfg := config{spec: small(spec), seed: 7, seconds: 0, trace: traced, setups: 1, dir: t.TempDir()}
			var log strings.Builder
			rep, err := runWorkload(cfg, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", info.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 3 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					info.Name, traced, rep.Correct, rep.Failed, rep.Attempted, log.String())
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json lists %d", info.Name, traced, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				switch {
				case !nameRE.MatchString(name):
					t.Errorf("metric name %q is outside the allowed alphabet", name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", info.Name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", info.Name, name, got.Unit, unit)
				}
			}
		}
	}
}

// TestOracleCatchesCorruptReference flips one bit of one rank's reference
// hash and of one rank's raw send volume: the oracle must report both, and
// must report nothing on the untouched fixture.
func TestOracleCatchesCorruptReference(t *testing.T) {
	spec, _ := findWorkload("archive-mg512x8")
	fx, err := buildFixture(small(spec), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, bad, err := verify(fx, t.TempDir(), 2); err != nil || len(bad) != 0 {
		t.Fatalf("clean fixture: err=%v mismatches=%v", err, bad)
	}
	last := len(fx.runs) - 1
	fx.runs[2].hashes[5] ^= 1
	fx.runs[last].sendBytes[9]++
	_, bad, err := verify(fx, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || !strings.Contains(bad[0], "run 2 rank 5") || !strings.Contains(bad[1], "rank 9") {
		t.Fatalf("oracle reported %q, want the corrupted hash and send volume", bad)
	}
}

// TestRecordingRoundTrip replays a recorded stream into a second recorder
// and requires the identical stream back, request lists included.
func TestRecordingRoundTrip(t *testing.T) {
	spec, _ := findWorkload("archive-mg512x8") // MG posts isend/irecv and waitall
	fx, err := buildFixture(small(spec), 1)
	if err != nil {
		t.Fatal(err)
	}
	for rank := range fx.runs[0].ranks {
		src := &fx.runs[0].ranks[rank]
		var again recorder
		src.replay(&again)
		if again.hash != fx.runs[0].hashes[rank] || len(again.s.marks) != len(src.marks) ||
			len(again.s.events) != len(src.events) || len(again.s.arena) != len(src.arena) {
			t.Fatalf("rank %d: replayed recording differs in shape", rank)
		}
		for i := range src.events {
			if src.events[i] != again.s.events[i] {
				t.Fatalf("rank %d event %d: %+v replayed as %+v", rank, i, src.events[i], again.s.events[i])
			}
		}
		for i := range src.arena {
			if src.arena[i] != again.s.arena[i] {
				t.Fatalf("rank %d: request arena differs at %d", rank, i)
			}
		}
	}
}
