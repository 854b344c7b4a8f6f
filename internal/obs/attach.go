package obs

import (
	"sync/atomic"

	ftrace "repro/internal/obs/trace"
)

// The process-wide observation switch. Every instrumented layer — the
// compressor, merge and its codec and streamer, replay, the simulator, the
// block container and the corpus — reads the attached
// sink and recorder from here; nothing else holds a copy except a
// Compressor, which takes the sink once at construction.
var (
	attachedSink atomic.Pointer[Sink]
	attachedRec  atomic.Pointer[ftrace.Recorder]
)

// Attach makes s the metrics sink and r the flight recorder of every
// pipeline layer; nil detaches either. Attach(nil, nil) switches
// observation off everywhere, which is the state a process starts in.
// Work already running keeps reporting into whatever it read when it
// started, and a Compressor keeps the sink it was built with.
func Attach(s *Sink, r *ftrace.Recorder) {
	attachedSink.Store(s)
	attachedRec.Store(r)
}

// Attached returns the attached metrics sink, nil when none is. A nil sink
// is the disabled state, so hot paths call its methods unconditionally: one
// pointer load and one nil check.
func Attached() *Sink { return attachedSink.Load() }

// AttachedRecorder returns the attached flight recorder, nil when none is.
// Like the sink, a nil recorder records nothing.
func AttachedRecorder() *ftrace.Recorder { return attachedRec.Load() }
