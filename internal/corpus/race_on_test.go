//go:build race

package corpus_test

const raceEnabled = true
