//go:build race

package interp

const raceEnabled = true
