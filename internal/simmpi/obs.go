package simmpi

import (
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
)

// sink is the package's attached metrics sink; nil (the default) disables
// observation. Wired once at startup via SetObs and only read afterwards.
var sink *obs.Sink

// SetObs attaches a metrics sink to the simulation engine. Call before
// simulating; a nil sink disables observation. Not safe to call concurrently
// with a running simulation.
func SetObs(s *obs.Sink) { sink = s }

// rec is the package's attached flight recorder: one span per sweep over the
// ranks on the "sim" track (lane 0). nil records nothing.
var rec *ftrace.Recorder

// SetTrace attaches a flight recorder to the simulation engine. Not safe to
// call concurrently with a running simulation.
func SetTrace(r *ftrace.Recorder) { rec = r }
