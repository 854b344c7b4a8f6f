package trace

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	if r.Cap() != 0 || r.Now() != 0 || r.Total() != 0 || r.Drops() != 0 {
		t.Fatal("nil recorder accounting not all zero")
	}
	sp := r.Begin(CatMerge, NamePair, 3)
	sp.End(1, 2) // must not panic
	r.Instant(CatReplay, NameMemoHit, 0, 1, 2)
	if evs := r.Snapshot(); evs != nil {
		t.Fatalf("nil recorder Snapshot = %v, want nil", evs)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("nil recorder WriteChromeJSON: %v", err)
	}
	c, err := ReadChromeJSON(&buf)
	if err != nil {
		t.Fatalf("parsing nil-recorder capture: %v", err)
	}
	if err := c.Validate(true); err != nil {
		t.Fatalf("empty capture invalid: %v", err)
	}
	if len(c.Events) != 0 || c.Total != 0 || c.Drops != 0 {
		t.Fatalf("empty capture not empty: %+v", c)
	}
}

func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		sp := r.Begin(CatCompress, NameFinish, 7)
		sp.End(10, 20)
		r.Instant(CatReplay, NameMemoHit, 0, 1, 0)
	}); n != 0 {
		t.Fatalf("nil recorder allocates %.1f/op, want 0", n)
	}
}

func TestEnabledRecorderZeroAllocEmit(t *testing.T) {
	r := New(minCapacity)
	if n := testing.AllocsPerRun(1000, func() {
		sp := r.Begin(CatCompress, NameFinish, 7)
		sp.End(10, 20)
		r.Instant(CatReplay, NameMemoHit, 0, 1, 0)
	}); n != 0 {
		t.Fatalf("emit allocates %.1f/op, want 0", n)
	}
}

func TestCapacityRounding(t *testing.T) {
	if got := New(0).Cap(); got != DefaultCapacity {
		t.Fatalf("New(0).Cap() = %d, want %d", got, DefaultCapacity)
	}
	if got := New(1).Cap(); got != minCapacity {
		t.Fatalf("New(1).Cap() = %d, want %d", got, minCapacity)
	}
	if got := New(minCapacity + 1).Cap(); got != 2*minCapacity {
		t.Fatalf("New(min+1).Cap() = %d, want %d", got, 2*minCapacity)
	}
}

func TestSpanAndInstantRoundTrip(t *testing.T) {
	r := New(minCapacity)
	sp := r.Begin(CatIOEnc, NameDeflate, 3)
	sp.End(4096, 512)
	r.Instant(CatCompress, NameWildcard, 9, 42, 1)

	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("Snapshot has %d events, want 2", len(evs))
	}
	span, inst := evs[0], evs[1]
	if span.Kind != KindSpan || span.Cat != CatIOEnc || span.Name != NameDeflate ||
		span.Lane != 3 || span.Arg0 != 4096 || span.Arg1 != 512 {
		t.Fatalf("span decoded wrong: %+v", span)
	}
	if span.Dur < 0 || span.Start < 0 {
		t.Fatalf("span has negative time: %+v", span)
	}
	if inst.Kind != KindInstant || inst.Cat != CatCompress || inst.Name != NameWildcard ||
		inst.Lane != 9 || inst.Arg0 != 42 || inst.Arg1 != 1 || inst.Dur != 0 {
		t.Fatalf("instant decoded wrong: %+v", inst)
	}
	if r.Total() != 2 || r.Drops() != 0 {
		t.Fatalf("Total=%d Drops=%d, want 2, 0", r.Total(), r.Drops())
	}
}

func TestMetaPackRoundTrip(t *testing.T) {
	for _, lane := range []int32{0, 1, 63, 1 << 20, -1} {
		m := packMeta(KindInstant, CatSim, NameWindow, lane)
		k, c, n, l := unpackMeta(m)
		if k != KindInstant || c != CatSim || n != NameWindow || l != lane {
			t.Fatalf("meta round-trip lane=%d: got %v %v %v %d", lane, k, c, n, l)
		}
	}
}

func TestWraparoundDrops(t *testing.T) {
	r := New(minCapacity)
	const emitted = minCapacity + 500
	for i := 0; i < emitted; i++ {
		r.Instant(CatCorpus, NameIngest, 0, int64(i), IngestFull)
	}
	if got := r.Total(); got != emitted {
		t.Fatalf("Total = %d, want %d", got, emitted)
	}
	if got := r.Drops(); got != 500 {
		t.Fatalf("Drops = %d, want 500", got)
	}
	evs := r.Snapshot()
	if len(evs) != minCapacity {
		t.Fatalf("Snapshot after wrap has %d events, want %d", len(evs), minCapacity)
	}
	// Oldest-first truncation: every surviving event is one of the newest.
	for _, e := range evs {
		if e.Seq <= 500 {
			t.Fatalf("event seq %d survived wraparound; oldest should drop first", e.Seq)
		}
	}
}

// TestConcurrentWriters hammers the ring from several goroutines while a
// reader snapshots continuously. Run under -race this checks the slot
// protocol; the arg encoding (Arg0 == Arg1 for every record) checks that no
// snapshot ever yields a torn record.
func TestConcurrentWriters(t *testing.T) {
	r := New(minCapacity)
	const writers, perWriter = 8, 2000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent snapshotter
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Snapshot() {
				if e.Arg0 != e.Arg1 {
					t.Errorf("torn record: Arg0=%d Arg1=%d", e.Arg0, e.Arg1)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(g)<<32 | int64(i)
				if i%3 == 0 {
					r.Instant(CatReplay, NameMemoHit, int32(g), v, v)
				} else {
					sp := r.Begin(CatMerge, NamePair, int32(g))
					sp.End(v, v)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if got := r.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	// The totals count every emit, including writers that gave way to a
	// newer record in their slot.
	const hits = writers * ((perWriter + 2) / 3)
	want := Totals{{Name: "pair", Count: writers*perWriter - hits}, {Name: "memo_hit", Count: hits}}
	got := r.Totals()
	for i := range got {
		got[i].TotalNS = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Totals = %+v, want %+v", got, want)
	}
	for _, e := range r.Snapshot() {
		if e.Cat >= NumCats || e.Name >= NumNames {
			t.Fatalf("corrupt meta in final snapshot: %+v", e)
		}
		if e.Arg0 != e.Arg1 {
			t.Fatalf("torn record in final snapshot: %+v", e)
		}
	}
}

func TestChromeJSONRoundTrip(t *testing.T) {
	r := New(minCapacity)
	sp := r.Begin(CatCodec, NameEncode, 0)
	sp.End(12345, 64)
	r.Instant(CatReplay, NameMemoHit, 0, 7, 0)
	sp = r.Begin(CatIODec, NameInflate, 1)
	sp.End(512, 4096)

	var buf bytes.Buffer
	if err := r.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	c, err := ReadChromeJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadChromeJSON: %v", err)
	}
	if err := c.Validate(true); err != nil {
		t.Fatalf("capture invalid: %v", err)
	}
	if c.Total != 3 || c.Drops != 0 || c.Truncated {
		t.Fatalf("header accounting wrong: %+v", c)
	}
	if len(c.Events) != 3 {
		t.Fatalf("capture has %d events, want 3", len(c.Events))
	}
	wantCats := []string{"blockio.dec", "codec", "replay"}
	if got := c.Cats(); len(got) != 3 || got[0] != wantCats[0] || got[1] != wantCats[1] || got[2] != wantCats[2] {
		t.Fatalf("Cats = %v, want %v", got, wantCats)
	}
	if lanes := c.Lanes("blockio.dec"); len(lanes) != 1 || lanes[0] != 1 {
		t.Fatalf("Lanes(blockio.dec) = %v, want [1]", lanes)
	}
	// Args survive with their schema names.
	var enc *CapturedEvent
	for i := range c.Events {
		if c.Events[i].Name == "encode" {
			enc = &c.Events[i]
		}
	}
	if enc == nil {
		t.Fatal("encode event missing from capture")
	}
	if enc.Args["bytes"] != 12345 || enc.Args["ranks"] != 64 {
		t.Fatalf("encode args = %v", enc.Args)
	}
	if c.CatNames[int64(CatCodec)] != "codec" {
		t.Fatalf("process_name metadata missing: %v", c.CatNames)
	}
	if c.LaneNames["4/1"] == "" { // CatIODec=4, lane 1
		t.Fatalf("thread_name metadata missing: %v", c.LaneNames)
	}
}

func TestTruncatedCaptureHeader(t *testing.T) {
	r := New(minCapacity)
	for i := 0; i < minCapacity+100; i++ {
		r.Instant(CatCorpus, NameCorpusGet, 0, 1, int64(i))
	}
	var buf bytes.Buffer
	if err := r.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	c, err := ReadChromeJSON(&buf)
	if err != nil {
		t.Fatalf("ReadChromeJSON: %v", err)
	}
	if !c.Truncated || c.Drops != 100 {
		t.Fatalf("truncation not exported: drops=%d truncated=%v", c.Drops, c.Truncated)
	}
	if err := c.Validate(false); err != nil {
		t.Fatalf("truncated capture should pass non-strict validation: %v", err)
	}
	if err := c.Validate(true); err == nil {
		t.Fatal("Validate(true) accepted a truncated capture")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	base := func() *Capture {
		return &Capture{Events: []CapturedEvent{
			{Name: "pair", Cat: "merge", Ph: "X", TSUsec: 1, DurUsec: 2},
			{Name: "pair", Cat: "merge", Ph: "X", TSUsec: 3, DurUsec: 1},
		}}
	}
	if err := base().Validate(false); err != nil {
		t.Fatalf("well-formed capture rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Capture){
		"missing name":      func(c *Capture) { c.Events[0].Name = "" },
		"missing cat":       func(c *Capture) { c.Events[1].Cat = "" },
		"bad phase":         func(c *Capture) { c.Events[0].Ph = "B" },
		"negative dur":      func(c *Capture) { c.Events[0].DurUsec = -1 },
		"negative ts":       func(c *Capture) { c.Events[0].TSUsec = -1 },
		"non-monotonic":     func(c *Capture) { c.Events[1].TSUsec = 0.5 },
		"drops sans header": func(c *Capture) { c.Drops = 3 },
	} {
		c := base()
		mutate(c)
		if err := c.Validate(false); err == nil {
			t.Errorf("Validate accepted capture with %s", name)
		}
	}
}

// TestCaptureWriteText renders a capture read back from its file form: the
// spans table from the header's totals, then the timeline.
func TestCaptureWriteText(t *testing.T) {
	r := New(minCapacity)
	sp := r.Begin(CatCompress, NameFinish, 12)
	sp.End(100, 90)
	r.Instant(CatCompress, NameWildcard, 12, 5, 1)
	var js bytes.Buffer
	if err := r.WriteChromeJSON(&js); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	c, err := ReadChromeJSON(&js)
	if err != nil {
		t.Fatalf("ReadChromeJSON: %v", err)
	}
	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"flight recorder: 2 events", "spans:", "total_ms", "compress/12", "finish", "wildcard_resolve", "events=100", "executed=90"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "spans:") > strings.Index(out, "compress/12") {
		t.Errorf("spans table not above the timeline:\n%s", out)
	}
}

// TestTotalsOutliveTheRing: the per-name totals count every emitted event
// and sum every duration, however many the ring has overwritten, and they
// survive the file form.
func TestTotalsOutliveTheRing(t *testing.T) {
	r := New(minCapacity)
	const emitted = 5000
	var wantNS int64
	for i := int64(1); i <= emitted; i++ {
		r.emit(KindSpan, CatMerge, NamePair, 1, i, i, 0, 0)
		wantNS += i
	}
	if got := r.Drops(); got != 3976 {
		t.Fatalf("Drops = %d, want 3976", got)
	}
	want := Totals{{Name: "pair", Count: emitted, TotalNS: wantNS}}
	if got := r.Totals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Totals = %+v, want %+v", got, want)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	c, err := ReadChromeJSON(&buf)
	if err != nil {
		t.Fatalf("ReadChromeJSON: %v", err)
	}
	if !reflect.DeepEqual(c.Totals, want) {
		t.Fatalf("capture Totals = %+v, want %+v", c.Totals, want)
	}
	if (*Recorder)(nil).Totals() != nil {
		t.Fatal("nil recorder has totals")
	}
}
