package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The exporters speak the Chrome trace-event JSON "object format": a
// top-level object with a traceEvents array plus metadata keys, which both
// Perfetto and chrome://tracing load directly. Spans are complete events
// (ph "X", microsecond ts/dur with sub-microsecond fractions preserved),
// instants are thread-scoped ph "i". Each Cat becomes one pid with a
// process_name metadata record; each lane becomes a tid with a thread_name,
// so parallel stages (blockio frame workers, simulator engine workers)
// render as real swimlanes.
//
// The header's otherData block makes silent truncation visible: it carries
// the recorder's total emitted event count, the number dropped to ring
// wraparound, and a truncated flag. Consumers that need a complete capture
// (the fixture CI job) must reject truncated files rather than quietly
// analyzing a window with its head cut off. It also carries the per-name
// totals, which stay exact however much of the ring was dropped.

// header mirrors the exported top-level object.
type header struct {
	DisplayTimeUnit string      `json:"displayTimeUnit"`
	OtherData       otherData   `json:"otherData"`
	TraceEvents     []jsonEvent `json:"traceEvents"`
}

type otherData struct {
	Recorder  string `json:"recorder"`
	Total     uint64 `json:"total_events"`
	Drops     uint64 `json:"drops"`
	Truncated bool   `json:"truncated"`
	Totals    Totals `json:"totals,omitempty"`
}

// jsonEvent is one Chrome trace-event record (export and import shape).
// Args holds int64 values for pipeline events and a string "name" for the
// ph "M" process_name/thread_name metadata records.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// usec converts recorder nanoseconds to trace-event microseconds without
// losing sub-microsecond ordering.
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// jsonEventsOf converts a snapshot (already start-sorted) into trace-event
// records, prepending process/thread metadata for every (cat, lane) seen.
func jsonEventsOf(evs []Event) []jsonEvent {
	type pt struct {
		cat  Cat
		lane int32
	}
	out := make([]jsonEvent, 0, len(evs)+16)
	seenCat := map[Cat]bool{}
	seenLane := map[pt]bool{}
	for _, e := range evs {
		if !seenCat[e.Cat] {
			seenCat[e.Cat] = true
			out = append(out, jsonEvent{
				Name: "process_name", Cat: "__metadata", Ph: "M",
				PID: int64(e.Cat),
				Args: map[string]any{
					"name": e.Cat.String(), "sort_index": int64(e.Cat),
				},
			})
		}
		if k := (pt{e.Cat, e.Lane}); !seenLane[k] {
			seenLane[k] = true
			out = append(out, jsonEvent{
				Name: "thread_name", Cat: "__metadata", Ph: "M",
				PID: int64(e.Cat), TID: int64(e.Lane),
				Args: map[string]any{"name": fmt.Sprintf("lane-%d", e.Lane)},
			})
		}
	}
	for _, e := range evs {
		an := ArgNames(e.Name)
		je := jsonEvent{
			Name: e.Name.String(),
			Cat:  e.Cat.String(),
			TS:   usec(e.Start),
			PID:  int64(e.Cat),
			TID:  int64(e.Lane),
			Args: map[string]any{
				an[0]: e.Arg0, an[1]: e.Arg1, "seq": int64(e.Seq),
			},
		}
		if e.Kind == KindInstant {
			je.Ph = "i"
			je.S = "t"
		} else {
			je.Ph = "X"
			d := usec(e.Dur)
			je.Dur = &d
		}
		out = append(out, je)
	}
	return out
}

// WriteChromeJSON exports every currently-retained event as Chrome
// trace-event JSON. A nil recorder writes an empty (but valid) capture.
func (r *Recorder) WriteChromeJSON(w io.Writer) error {
	h := header{
		DisplayTimeUnit: "ns",
		OtherData: otherData{
			Recorder:  "cypress-flight-recorder/1",
			Total:     r.Total(),
			Drops:     r.Drops(),
			Truncated: r.Drops() > 0,
			Totals:    r.Totals(),
		},
		TraceEvents: jsonEventsOf(r.Snapshot()),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&h)
}

// CapturedEvent is one non-metadata record of a parsed capture file.
type CapturedEvent struct {
	Name    string
	Cat     string
	Ph      string
	TSUsec  float64
	DurUsec float64
	PID     int64
	TID     int64
	Args    map[string]int64
}

// Capture is a parsed trace capture: the header accounting plus every
// non-metadata event, in file order.
type Capture struct {
	Total     uint64
	Drops     uint64
	Truncated bool
	Totals    Totals
	Events    []CapturedEvent
	// LaneNames maps (pid,tid) keys ("pid/tid") to thread_name metadata.
	LaneNames map[string]string
	// CatNames maps pid to process_name metadata.
	CatNames map[int64]string
}

// ReadChromeJSON parses a capture written by WriteChromeJSON (or any
// object-format Chrome trace with the same otherData header).
func ReadChromeJSON(rd io.Reader) (*Capture, error) {
	var h header
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: parsing capture: %w", err)
	}
	c := &Capture{
		Total: h.OtherData.Total, Drops: h.OtherData.Drops,
		Truncated: h.OtherData.Truncated, Totals: h.OtherData.Totals,
		LaneNames: map[string]string{}, CatNames: map[int64]string{},
	}
	for _, je := range h.TraceEvents {
		if je.Ph == "M" {
			name, _ := je.Args["name"].(string)
			switch je.Name {
			case "process_name":
				c.CatNames[je.PID] = name
			case "thread_name":
				c.LaneNames[fmt.Sprintf("%d/%d", je.PID, je.TID)] = name
			}
			continue
		}
		ev := CapturedEvent{
			Name: je.Name, Cat: je.Cat, Ph: je.Ph,
			TSUsec: je.TS, PID: je.PID, TID: je.TID,
			Args: map[string]int64{},
		}
		for k, v := range je.Args {
			if f, ok := v.(float64); ok {
				ev.Args[k] = int64(f)
			}
		}
		if je.Dur != nil {
			ev.DurUsec = *je.Dur
		}
		c.Events = append(c.Events, ev)
	}
	return c, nil
}

// Validate checks the capture against the invariants the exporter
// guarantees and the fixture CI job asserts: every event carries the
// required trace-event keys, timestamps are monotonically non-decreasing
// within each (pid, tid) lane, span durations are non-negative, and the
// header's accounting is consistent. It does not require Drops == 0; pass
// requireComplete to additionally reject truncated captures.
func (c *Capture) Validate(requireComplete bool) error {
	if requireComplete && (c.Truncated || c.Drops > 0) {
		return fmt.Errorf("trace: capture truncated: %d of %d events dropped to ring wraparound", c.Drops, c.Total)
	}
	if c.Drops > 0 && !c.Truncated {
		return fmt.Errorf("trace: header inconsistency: drops=%d but truncated=false", c.Drops)
	}
	lastTS := map[[2]int64]float64{}
	for i, e := range c.Events {
		if e.Name == "" {
			return fmt.Errorf("trace: event %d: missing name", i)
		}
		if e.Cat == "" {
			return fmt.Errorf("trace: event %d (%s): missing cat", i, e.Name)
		}
		switch e.Ph {
		case "X":
			if e.DurUsec < 0 {
				return fmt.Errorf("trace: event %d (%s): negative dur %f", i, e.Name, e.DurUsec)
			}
		case "i":
		default:
			return fmt.Errorf("trace: event %d (%s): unsupported phase %q", i, e.Name, e.Ph)
		}
		if e.TSUsec < 0 {
			return fmt.Errorf("trace: event %d (%s): negative ts", i, e.Name)
		}
		key := [2]int64{e.PID, e.TID}
		if prev, ok := lastTS[key]; ok && e.TSUsec < prev {
			return fmt.Errorf("trace: event %d (%s): ts %.3f before %.3f on lane %d/%d",
				i, e.Name, e.TSUsec, prev, e.PID, e.TID)
		}
		lastTS[key] = e.TSUsec
	}
	return nil
}

// Cats returns the distinct non-metadata categories present, sorted.
func (c *Capture) Cats() []string {
	set := map[string]bool{}
	for _, e := range c.Events {
		set[e.Cat] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Lanes returns the distinct tids seen for a category name.
func (c *Capture) Lanes(cat string) []int64 {
	set := map[int64]bool{}
	for _, e := range c.Events {
		if e.Cat == cat {
			set[e.TID] = true
		}
	}
	out := make([]int64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteText renders the per-name totals as the spans table: count, summed
// duration and mean duration of every name. It writes nothing for no totals.
func (ts Totals) WriteText(w io.Writer) error {
	if len(ts) == 0 {
		return nil
	}
	fmt.Fprintln(w, "spans:")
	fmt.Fprintf(w, "  %-16s %10s %14s %14s\n", "name", "count", "total_ms", "mean_us")
	for _, t := range ts {
		if _, err := fmt.Fprintf(w, "  %-16s %10d %14.3f %14.2f\n",
			t.Name, t.Count, float64(t.TotalNS)/1e6, float64(t.TotalNS)/float64(t.Count)/1e3); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders the capture's spans table, then an aligned timeline,
// one row per event in timestamp order: offset, duration, category/lane,
// name, args.
func (c *Capture) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "flight recorder: %d events captured, %d emitted, %d dropped (truncated=%v)\n",
		len(c.Events), c.Total, c.Drops, c.Truncated); err != nil {
		return err
	}
	if err := c.Totals.WriteText(w); err != nil {
		return err
	}
	evs := append([]CapturedEvent(nil), c.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TSUsec < evs[j].TSUsec })
	for _, e := range evs {
		dur := "          "
		if e.Ph == "X" {
			dur = fmt.Sprintf("%9.1fus", e.DurUsec)
		}
		lane := fmt.Sprintf("%s/%d", e.Cat, e.TID)
		if _, err := fmt.Fprintf(w, "%12.1fus %s  %-16s %-16s %s\n",
			e.TSUsec, dur, lane, e.Name, formatArgs(e.Args)); err != nil {
			return err
		}
	}
	return nil
}

// formatArgs renders an args map deterministically (seq last).
func formatArgs(args map[string]int64) string {
	if len(args) == 0 {
		return ""
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		if k != "seq" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%d ", k, args[k])
	}
	if v, ok := args["seq"]; ok {
		s += fmt.Sprintf("seq=%d", v)
	}
	return s
}
