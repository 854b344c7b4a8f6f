package main

import (
	"repro/internal/npb"
)

// workload is one set of inputs: a program, a rank count, how many live runs
// of it are captured and archived, and how many single-rank reads are made.
type workload struct {
	name    string
	program string // internal/npb registry name
	ranks   int
	scale   npb.Scale
	runs    int // R: runs of the same program captured and archived per op
	queries int // Q: cold single-rank reads per op
}

func (w workload) source() string { return npb.Get(w.program).Source(w.ranks, w.scale) }

// workloads is the fixed set BENCHMARK.json names; README.md says why each
// exists and which layers it loads.
var workloads = []workload{
	{name: "fold-lu128", program: "LU", ranks: 128, scale: npb.Paper, runs: 1, queries: 16},
	{name: "shard-sp1024", program: "SP", ranks: 1024, scale: npb.Paper, runs: 1, queries: 32},
	{name: "archive-mg512x8", program: "MG", ranks: 512, scale: npb.Paper, runs: 8, queries: 64},
	{name: "predict-cg1024", program: "CG", ranks: 1024, scale: npb.Paper, runs: 1, queries: 16},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
