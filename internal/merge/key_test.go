package merge

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ctt"
	"repro/internal/fp"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/rankset"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// The probe index skips a left entry because its key differs from the right
// entry's, without looking at it. That is sound only if compatible() could
// not have accepted the pair — compatible(a, b) ⇒ key(a) == key(b) — and only
// if a key memoized before earlier right entries were unified into a left
// entry still describes it. Byte-identity
// against the scan reference (TestFingerprintEquivalence*) checks the outcome on
// real workloads; the tests here check those two obligations directly, on
// payloads built to sit close to every line of compatible().

var keyOps = []trace.Op{
	trace.OpSend, trace.OpRecv, trace.OpIsend, trace.OpIrecv,
	trace.OpReduce, trace.OpAllreduce, trace.OpWaitall,
}

func randStat(rng *rand.Rand) timestat.Stat {
	mode := timestat.ModeMeanStddev
	if rng.Intn(3) == 0 {
		mode = timestat.ModeHistogram
	}
	s := timestat.Make(mode)
	s.Add(float64(100 + rng.Intn(900)))
	return s
}

// randRecord draws a record from a deliberately small parameter space, so
// two independent draws agree on a field often enough for whole payloads to
// be compatible now and then.
func randRecord(rng *rand.Rand) *ctt.CommRecord {
	r := &ctt.CommRecord{
		Ev: trace.Event{
			Op:   keyOps[rng.Intn(len(keyOps))],
			Size: 64 << rng.Intn(2),
			Tag:  rng.Intn(2),
			Comm: rng.Intn(2),
			Peer: rng.Intn(3),
		},
		PeerRel: rng.Intn(3) - 1,
		Count:   int64(1 + rng.Intn(2)),
		Time:    randStat(rng),
		Compute: randStat(rng),
	}
	if r.Ev.Op == trace.OpWaitall {
		for k := rng.Intn(3); k > 0; k-- {
			r.Ev.Reqs = append(r.Ev.Reqs, int32(rng.Intn(2)))
		}
	}
	if r.Ev.Op.IsPointToPoint() {
		r.Ev.Wildcard = r.Ev.Op == trace.OpRecv && rng.Intn(4) == 0
		switch rng.Intn(5) {
		case 0:
			r.Peers = &ctt.PeerPattern{Period: []int32{1, int32(rng.Intn(2)) - 1}}
		case 1:
			r.RelEncoded = true
		case 2:
			r.RelUnsafe = true
		}
	}
	return r
}

func randVData(rng *rand.Rand) *ctt.VData {
	d := &ctt.VData{}
	for k := rng.Intn(3); k > 0; k-- {
		d.Counts.Append(int64(rng.Intn(3)))
	}
	for k, x := rng.Intn(3), int64(0); k > 0; k-- {
		x += int64(1 + rng.Intn(2))
		d.Taken.Add(x)
	}
	for k := rng.Intn(3); k > 0; k-- {
		d.Records = append(d.Records, randRecord(rng))
	}
	if len(d.Records) > 1 && rng.Intn(3) == 0 {
		d.Cycles = []ctt.Cycle{{Start: 0, Len: int32(len(d.Records)), Reps: int64(2 + rng.Intn(2))}}
	}
	return d
}

// cloneVData deep-copies everything compatible() and the unifiers read or
// write.
func cloneVData(d *ctt.VData) *ctt.VData {
	c := &ctt.VData{Cycles: append([]ctt.Cycle(nil), d.Cycles...)}
	for _, x := range d.Counts.Values() {
		c.Counts.Append(x)
	}
	for _, x := range d.Taken.Values() {
		c.Taken.Add(x)
	}
	for _, r := range d.Records {
		cr := *r
		cr.Ev.Reqs = append([]int32(nil), r.Ev.Reqs...)
		cr.Time, cr.Compute = *r.Time.Clone(), *r.Compute.Clone()
		if r.Peers != nil {
			cr.Peers = &ctt.PeerPattern{Period: append([]int32(nil), r.Peers.Period...)}
		}
		c.Records = append(c.Records, &cr)
	}
	return c
}

// mutate changes one thing about d: a field compatible() compares, a field
// only one encoding compares, or a field it ignores.
func mutate(rng *rand.Rand, d *ctt.VData) {
	if len(d.Records) == 0 || rng.Intn(8) == 0 {
		switch rng.Intn(3) {
		case 0:
			d.Counts.Append(int64(rng.Intn(3)))
		case 1:
			d.Records = append(d.Records, randRecord(rng))
		case 2:
			d.Cycles = append(d.Cycles, ctt.Cycle{Len: 1, Reps: 2})
		}
		return
	}
	r := d.Records[rng.Intn(len(d.Records))]
	switch rng.Intn(13) {
	case 0:
		r.Ev.Size++
	case 1:
		r.Ev.Tag++
	case 2:
		r.Ev.Comm++
	case 3:
		r.Count++
	case 4:
		r.Ev.Wildcard = !r.Ev.Wildcard
	case 5:
		r.Ev.Reqs = append(r.Ev.Reqs, 1)
	case 6:
		r.Ev.Peer++
	case 7:
		r.PeerRel++
	case 8:
		r.RelEncoded, r.RelUnsafe = !r.RelEncoded, false
	case 9:
		r.RelUnsafe, r.RelEncoded = !r.RelUnsafe, false
	case 10:
		if r.Peers == nil && r.Ev.Op.IsPointToPoint() {
			r.Peers = &ctt.PeerPattern{Period: []int32{1, -1}}
		} else if r.Peers != nil {
			r.Peers.Period[0]++
		}
	case 11:
		r.Time = timestat.Make(timestat.ModeHistogram)
	case 12:
		r.Ev.Op = keyOps[rng.Intn(len(keyOps))]
	}
}

// TestCompatibleImpliesEqualKeys is the necessity half: whatever pair
// compatible() accepts, under either noRel setting, has equal keys. It also
// requires a healthy share of accepted pairs and of unequal keys, so a
// generator drifting into all-incompatible (or a key that hashes nothing)
// fails the test instead of passing it vacuously.
func TestCompatibleImpliesEqualKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var sc probeScratch
	const trials = 40000
	accepted, distinct := 0, 0
	for trial := 0; trial < trials; trial++ {
		a := randVData(rng)
		var b *ctt.VData
		switch rng.Intn(4) {
		case 0:
			b = randVData(rng)
		case 1:
			b = cloneVData(a)
		default:
			b = cloneVData(a)
			mutate(rng, b)
		}
		ka, kb := a.InvariantKey(), b.InvariantKey()
		if ka != kb {
			distinct++
		}
		for _, noRel := range []bool{false, true} {
			st := mergeState{noRel: noRel, sc: &sc}
			if _, ok := st.compatible(a, b); ok {
				accepted++
				if ka != kb {
					t.Fatalf("trial %d noRel=%v: compatible payloads have keys %x and %x\na: %s\nb: %s",
						trial, noRel, ka, kb, dumpVData(a), dumpVData(b))
				}
			}
		}
	}
	if accepted < trials/10 || distinct < trials/10 {
		t.Fatalf("generator too lopsided to mean anything: %d accepted verdicts, %d unequal key pairs in %d trials",
			accepted, distinct, trials)
	}
}

// TestUnifyKeepsKey is the stability half: unify never changes the key of
// the payload it folds into, whatever encoding marks and statistics it
// touches.
func TestUnifyKeepsKey(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	var sc probeScratch
	walked := 0
	for trial := 0; trial < 20000; trial++ {
		a := randVData(rng)
		b := cloneVData(a)
		if rng.Intn(2) == 0 {
			mutate(rng, b)
		}
		if len(a.Records) != len(b.Records) {
			continue
		}
		want := a.InvariantKey()
		check := func(how string, d *ctt.VData) {
			if got := d.InvariantKey(); got != want {
				t.Fatalf("trial %d: %s moved the key %x -> %x\nbefore: %s\nafter:  %s\nother:  %s",
					trial, how, want, got, dumpVData(a), dumpVData(d), dumpVData(b))
			}
		}
		for _, noRel := range []bool{false, true} {
			st := mergeState{noRel: noRel, sc: &sc}
			if rel, ok := st.compatible(a, b); ok {
				walked++
				d := cloneVData(a)
				unify(d, b, rel)
				check(fmt.Sprintf("unify(noRel=%v)", noRel), d)
			}
		}
	}
	if walked < 1000 {
		t.Fatalf("only %d compatible pairs reached unify", walked)
	}
}

func dumpVData(d *ctt.VData) string {
	s := fmt.Sprintf("counts=%v taken=%v cycles=%v", d.Counts.String(), d.Taken.String(), d.Cycles)
	for _, r := range d.Records {
		s += fmt.Sprintf(" {op=%v size=%d tag=%d comm=%d peer=%d rel=%d n=%d wild=%v reqs=%v enc=%v unsafe=%v pat=%v hist=%v/%v}",
			r.Ev.Op, r.Ev.Size, r.Ev.Tag, r.Ev.Comm, r.Ev.Peer, r.PeerRel, r.Count, r.Ev.Wildcard,
			r.Ev.Reqs, r.RelEncoded, r.RelUnsafe, r.Peers, r.Time.Hist != nil, r.Compute.Hist != nil)
	}
	return s
}

// TestEntryListsMatchesScan runs the probe routine itself against its own
// unindexed scan on random entry lists drawn from the small parameter space
// above, where a right entry often has several compatible left entries (a
// poisoned absolute record and a rel-encoded one both accept a plain record
// that agrees with each) and right entries are often compatible with one
// another. Which left entry wins, and that an appended right entry is there
// for the next one to find, is then visible in the result: same groups, same
// ranks, same encoding marks, and tallies that add up to the scan's walks.
func TestEntryListsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	build := func(ds []*ctt.VData, base int) []Entry {
		es := make([]Entry, len(ds))
		for i, d := range ds {
			es[i] = Entry{Ranks: rankset.Single(base + i), Data: cloneVData(d), owns: true}
		}
		return es
	}
	render := func(es []Entry) string {
		var out string
		for _, e := range es {
			out += e.Ranks.String() + " " + dumpVData(e.Data) + "\n"
		}
		return out
	}
	var indexedLists, multiChoice int
	for trial := 0; trial < 3000; trial++ {
		// A few templates, mutated, so that keys repeat within a list.
		templates := []*ctt.VData{randVData(rng), randVData(rng), randVData(rng)}
		draw := func(n int) []*ctt.VData {
			ds := make([]*ctt.VData, n)
			for i := range ds {
				ds[i] = cloneVData(templates[rng.Intn(len(templates))])
				if rng.Intn(3) > 0 {
					mutate(rng, ds[i])
				}
			}
			return ds
		}
		lds, rds := draw(rng.Intn(3*indexMin)), draw(1+rng.Intn(2*indexMin))
		noRel := rng.Intn(4) == 0

		scan := mergeState{noRel: noRel, sc: new(probeScratch)}
		want := scan.entryLists(build(lds, 0), build(rds, 100))
		keyed := mergeState{noRel: noRel, keyOn: true, sc: new(probeScratch)}
		got := keyed.entryLists(build(lds, 0), build(rds, 100))

		if render(got) != render(want) {
			t.Fatalf("trial %d (noRel=%v): keyed probe and scan disagree\nkeyed:\n%sscan:\n%s", trial, noRel, render(got), render(want))
		}
		if keyed.walks+keyed.keyRejects != scan.walks || keyed.unmerged != scan.unmerged {
			t.Fatalf("trial %d: keyed %d walks + %d rejects, %d unmerged; scan %d walks, %d unmerged",
				trial, keyed.walks, keyed.keyRejects, keyed.unmerged, scan.walks, scan.unmerged)
		}
		if len(keyed.sc.next) > 0 {
			indexedLists++
		}
		// Count trials where the winner was a choice: some right entry is
		// compatible with two or more of the original left entries.
		for _, r := range rds {
			n := 0
			for _, l := range lds {
				if _, ok := scan.compatible(l, r); ok {
					n++
				}
			}
			if n > 1 && len(lds) >= indexMin {
				multiChoice++
				break
			}
		}
	}
	if indexedLists < 500 || multiChoice < 200 {
		t.Fatalf("generator too tame: %d trials used the index, %d offered a choice of winner", indexedLists, multiChoice)
	}
}

// mergeCounters runs one single-worker reduction over freshly collected trees
// of an npb workload with a sink attached and returns the sink. keyOn false
// runs the scan reference.
func mergeCounters(t *testing.T, name string, n int, keyOn bool) *obs.Sink {
	t.Helper()
	_, ctts, _ := collect(t, npb.Get(name).Source(n, npb.Small), n)
	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil)
	if _, err := all(ctts, 1, false, keyOn); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMergeWalksFollowGroups is the scaling claim as exact counts. On SP no
// two ranks' leaves fold, so every right entry ends up appended as a group of
// its own; the scan walked it against every group already there — walks grow
// with the square of the group count — where every group of an SP leaf has a
// key of its own and the keyed probe walks only pairs that merge. CG's
// butterfly leaves split the same way, by peer-pattern period, which the key
// folds; MG's groups split by pattern and signature. None of the three may
// have a walk refuse at any size, and key rejects plus walks must still add
// up to the probes the scan makes (counted by running the scan with keyOn
// false, where every probe is a walk).
//
// DT is the case the key cannot settle: its leaves split by a plain p2p peer,
// which has two encodings, so its walk rejects (22 506 at 256 ranks) are
// logged, not bounded.
func TestMergeWalksFollowGroups(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs []int
		known bool // walk rejects the key cannot avoid: log them only
	}{
		{"SP", []int{64, 256, 1024}, false},
		{"CG", []int{64, 256, 1024}, false},
		{"MG", []int{64, 256}, false},
		{"DT", []int{256}, true},
	} {
		for _, n := range tc.procs {
			s := mergeCounters(t, tc.name, n, true)
			walks, walkRejects := s.Value(obs.MergeWalks), s.Value(obs.MergeWalkRejects)
			rejects, unmerged := s.Value(obs.MergeKeyRejects), s.Value(obs.MergeEntriesUnmerged)
			t.Logf("%s-%d: %d walks (%d refused), %d key rejects, %d entries unmerged",
				tc.name, n, walks, walkRejects, rejects, unmerged)
			if tc.known {
				continue
			}
			if unmerged == 0 || rejects == 0 {
				t.Fatalf("%s-%d: %d unmerged entries, %d key rejects; the workload no longer fragments",
					tc.name, n, unmerged, rejects)
			}
			if walkRejects != 0 {
				t.Errorf("%s-%d: %d walks refused for %d unmerged entries", tc.name, n, walkRejects, unmerged)
			}
			if n > 256 {
				continue // the quadratic reference is the slow part
			}
			ref := mergeCounters(t, tc.name, n, false)
			if probes := ref.Value(obs.MergeWalks); rejects+walks != probes {
				t.Errorf("%s-%d: %d key rejects + %d walks != %d probes of the scan",
					tc.name, n, rejects, walks, probes)
			}
			if ref.Value(obs.MergeKeyRejects) != 0 {
				t.Errorf("%s-%d: the scan reference consulted the key", tc.name, n)
			}
		}
	}
}

// TestInvariantKeyIgnoresWhatCompatibleIgnores pins the key's exclusions one
// by one: stat storage shape, both peer encodings of a plain p2p record and
// the encoding marks must not move it; pattern presence and period, a
// collective's root and every signature field must.
func TestInvariantKeyIgnoresWhatCompatibleIgnores(t *testing.T) {
	base := func() *ctt.VData {
		return &ctt.VData{Records: []*ctt.CommRecord{
			{Ev: trace.Event{Op: trace.OpSend, Size: 64, Peer: 3, Tag: 1}, PeerRel: 1, Count: 2,
				Time: timestat.Make(timestat.ModeMeanStddev), Compute: timestat.Make(timestat.ModeMeanStddev)},
			{Ev: trace.Event{Op: trace.OpReduce, Size: 8, Peer: 0}, Count: 1,
				Time: timestat.Make(timestat.ModeMeanStddev), Compute: timestat.Make(timestat.ModeMeanStddev)},
		}}
	}
	want := base().InvariantKey()
	for _, tc := range []struct {
		name string
		edit func(d *ctt.VData)
		same bool
	}{
		{"histogram stats", func(d *ctt.VData) { d.Records[0].Time = timestat.Make(timestat.ModeHistogram) }, true},
		{"p2p absolute peer", func(d *ctt.VData) { d.Records[0].Ev.Peer = 9 }, true},
		{"p2p relative peer", func(d *ctt.VData) { d.Records[0].PeerRel = -4 }, true},
		{"rel-encoded", func(d *ctt.VData) { d.Records[0].RelEncoded = true }, true},
		{"rel-unsafe", func(d *ctt.VData) { d.Records[0].RelUnsafe = true }, true},
		{"pattern presence", func(d *ctt.VData) { d.Records[0].Peers = &ctt.PeerPattern{Period: []int32{1, -1}} }, false},
		{"collective root", func(d *ctt.VData) { d.Records[1].Ev.Peer = 1 }, false},
		{"size", func(d *ctt.VData) { d.Records[0].Ev.Size = 65 }, false},
		{"tag", func(d *ctt.VData) { d.Records[0].Ev.Tag = 2 }, false},
		{"comm", func(d *ctt.VData) { d.Records[0].Ev.Comm = 1 }, false},
		{"run length", func(d *ctt.VData) { d.Records[0].Count = 3 }, false},
		{"wildcard", func(d *ctt.VData) { d.Records[0].Ev.Wildcard = true }, false},
		{"request list", func(d *ctt.VData) { d.Records[1].Ev.Reqs = []int32{4} }, false},
		{"loop counts", func(d *ctt.VData) { d.Counts.Append(5) }, false},
		{"taken set", func(d *ctt.VData) { d.Taken.Add(2) }, false},
		{"cycles", func(d *ctt.VData) { d.Cycles = []ctt.Cycle{{Len: 2, Reps: 3}} }, false},
	} {
		d := base()
		tc.edit(d)
		if got := d.InvariantKey(); (got == want) != tc.same {
			t.Errorf("%s: key equal = %v, want %v", tc.name, got == want, tc.same)
		}
	}
	// A pattern period is not an encoding: compatible() accepts two pattern
	// records only through PeerPattern.Equal, so the key follows the period
	// verbatim — a different or merely longer (non-minimal) period moves it,
	// an equal one in a fresh slice does not — and agrees with compatible()
	// on every pair.
	var sc probeScratch
	st := mergeState{sc: &sc}
	withPeriod := func(period ...int32) *ctt.VData {
		d := base()
		d.Records[0].Peers = &ctt.PeerPattern{Period: period}
		return d
	}
	p := withPeriod(1, -1)
	for _, tc := range []struct {
		name string
		q    *ctt.VData
		same bool
	}{
		{"equal period", withPeriod(1, -1), true},
		{"different period", withPeriod(2, -2), false},
		{"period rotated", withPeriod(-1, 1), false},
		{"non-minimal period", withPeriod(1, -1, 1, -1), false},
	} {
		if got := p.InvariantKey() == tc.q.InvariantKey(); got != tc.same {
			t.Errorf("%s: key equal = %v, want %v", tc.name, got, tc.same)
		}
		if _, ok := st.compatible(p, tc.q); ok != tc.same {
			t.Errorf("%s: compatible = %v, want %v", tc.name, ok, tc.same)
		}
	}
	var zero fp.Hash
	if want == zero {
		t.Error("degenerate key")
	}
}

// TestShapeKeyReadsWhatTheWalkReads pins the replay shape field by field, on
// the key and on the exact comparison alike: everything replay.walkSteps
// reads moves both, and nothing it only copies into an event moves either —
// which is what lets ranks split by a size, a tag or a peer share a skeleton.
func TestShapeKeyReadsWhatTheWalkReads(t *testing.T) {
	base := func() *ctt.VData {
		return &ctt.VData{Records: []*ctt.CommRecord{
			{Ev: trace.Event{Op: trace.OpSend, Size: 64, Peer: 3, Tag: 1}, PeerRel: 1, Count: 2,
				Time: timestat.Make(timestat.ModeMeanStddev), Compute: timestat.Make(timestat.ModeMeanStddev)},
			{Ev: trace.Event{Op: trace.OpReduce, Size: 8, Peer: 0}, Count: 1,
				Time: timestat.Make(timestat.ModeMeanStddev), Compute: timestat.Make(timestat.ModeMeanStddev)},
		}}
	}
	want := base()
	for _, tc := range []struct {
		name string
		edit func(d *ctt.VData)
		same bool
	}{
		{"operation", func(d *ctt.VData) { d.Records[0].Ev.Op = trace.OpIsend }, true},
		{"size", func(d *ctt.VData) { d.Records[0].Ev.Size = 65 }, true},
		{"tag", func(d *ctt.VData) { d.Records[0].Ev.Tag = 2 }, true},
		{"comm", func(d *ctt.VData) { d.Records[0].Ev.Comm = 1 }, true},
		{"absolute peer", func(d *ctt.VData) { d.Records[0].Ev.Peer = 9 }, true},
		{"relative peer", func(d *ctt.VData) { d.Records[0].PeerRel = -4 }, true},
		{"peer pattern", func(d *ctt.VData) { d.Records[0].Peers = &ctt.PeerPattern{Period: []int32{1, -1}} }, true},
		{"wildcard", func(d *ctt.VData) { d.Records[0].Ev.Wildcard = true }, true},
		{"request list", func(d *ctt.VData) { d.Records[1].Ev.Reqs = []int32{4} }, true},
		{"histogram stats", func(d *ctt.VData) { d.Records[0].Time = timestat.Make(timestat.ModeHistogram) }, true},
		{"run length", func(d *ctt.VData) { d.Records[0].Count = 3 }, false},
		{"run lengths swapped", func(d *ctt.VData) { d.Records[0].Count, d.Records[1].Count = 1, 2 }, false},
		{"record count", func(d *ctt.VData) { d.Records = d.Records[:1] }, false},
		{"loop counts", func(d *ctt.VData) { d.Counts.Append(5) }, false},
		{"taken set", func(d *ctt.VData) { d.Taken.Add(2) }, false},
		{"cycles", func(d *ctt.VData) { d.Cycles = []ctt.Cycle{{Len: 2, Reps: 3}} }, false},
	} {
		d := base()
		tc.edit(d)
		if got := d.ShapeKey() == want.ShapeKey(); got != tc.same {
			t.Errorf("%s: key equal = %v, want %v", tc.name, got, tc.same)
		}
		if got := d.SameShape(want) && want.SameShape(d); got != tc.same {
			t.Errorf("%s: SameShape = %v, want %v", tc.name, got, tc.same)
		}
	}
}
