//go:build !race

package corpus_test

// raceEnabled reports whether the race detector instruments this build. The
// detector makes sync.Pool drop items at random, so pooled paths allocate and
// allocation budgets become meaningless under -race.
const raceEnabled = false
