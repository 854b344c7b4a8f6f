package main

// Harness-side spans: recorded around each call into a layer, never inside
// the program. Spans stay in memory until the run ends; then they are
// written as Chrome/Perfetto JSON and reduced to a self-time table.

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval. parent is the index of the enclosing span, or
// -1; op numbers the pipeline op the span belongs to.
type span struct {
	name       string
	start, end time.Duration // since tracer.t0
	parent     int32
	op         int32
}

// tracer times intervals. Durations are always measured — the end-to-end
// metrics need them; spans are kept only while on is set, so an untraced op
// pays two clock reads per interval and nothing else.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	cur   int32 // innermost open span, -1 at top level
	op    int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

type open struct {
	start time.Time
	idx   int32
}

func (t *tracer) begin(name string) open {
	o := open{idx: -1, start: time.Now()}
	if t.on {
		o.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, start: o.start.Sub(t.t0), parent: t.cur, op: t.op})
		t.cur = o.idx
	}
	return o
}

func (t *tracer) end(o open) time.Duration {
	now := time.Now()
	if o.idx >= 0 {
		s := &t.spans[o.idx]
		s.end = now.Sub(t.t0)
		t.cur = s.parent
	}
	return now.Sub(o.start)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	by := map[string]time.Duration{}
	for i, s := range t.spans {
		by[s.name] += self[i]
	}
	return by
}

// durations returns every recorded duration of the named span, in seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// writeChromeJSON writes the spans as complete ("X") events on one thread,
// which Perfetto and chrome://tracing nest by containment.
func (t *tracer) writeChromeJSON(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"op": int(s.op), "parent": int(s.parent)},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
