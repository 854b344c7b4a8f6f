package cypress

import (
	"bytes"
	"io"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"repro/internal/merge"
	"repro/internal/npb"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/replay"
	"repro/internal/simmpi"
	"repro/internal/trace"
)

// TestObsPipelineWiring runs the full pipeline with a sink attached and
// checks every stage reported in: compressor intake, stride aggregation,
// merge reduction, encode/decode, streaming replay, and simulation.
func TestObsPipelineWiring(t *testing.T) {
	s := obs.New()
	obs.Attach(s, nil)
	defer obs.Attach(nil, nil) // restore the disabled state for other tests

	p, err := Compile(jacobi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Trace(7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Value(obs.CompEvents) == 0 || s.Value(obs.CompMergeHits) == 0 {
		t.Errorf("compressor counters empty: events=%d hits=%d",
			s.Value(obs.CompEvents), s.Value(obs.CompMergeHits))
	}
	if s.Value(obs.StrideValues) == 0 || s.Value(obs.StrideRuns) == 0 {
		t.Errorf("stride counters empty: values=%d runs=%d",
			s.Value(obs.StrideValues), s.Value(obs.StrideRuns))
	}
	if got := s.Value(obs.MergePairs); got != 6 {
		t.Errorf("merge_pairs = %d, want 6 (7-leaf reduction)", got)
	}
	if _, err := res.PredictPar(0); err != nil {
		t.Fatal(err)
	}
	if s.Value(obs.ReplaySkeletonBuilds) == 0 || s.Value(obs.ReplayEventsEmitted) == 0 {
		t.Errorf("replay counters empty: builds=%d emitted=%d",
			s.Value(obs.ReplaySkeletonBuilds), s.Value(obs.ReplayEventsEmitted))
	}
	if s.Value(obs.SimEventsProcessed) == 0 {
		t.Error("sim_events_processed empty after Predict")
	}
	var buf bytes.Buffer
	if _, err := res.WriteTrace(&buf, FormatRaw); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if s.Value(obs.EncTraces) != 1 || s.Value(obs.DecTraces) != 1 ||
		s.Value(obs.EncBytesRaw) == 0 || s.Value(obs.DecRecords) == 0 {
		t.Errorf("codec counters wrong: enc=%d dec=%d raw=%d recs=%d",
			s.Value(obs.EncTraces), s.Value(obs.DecTraces),
			s.Value(obs.EncBytesRaw), s.Value(obs.DecRecords))
	}
	if r := s.Report(); len(r.Counters) == 0 {
		t.Errorf("report empty: %+v", r)
	}
}

// TestStageSpanCounts pins the recorder's per-name totals to the stages a
// CG-16 run goes through: one finish per rank, one pair per reduction node,
// one run and one reduction, then one encode, one decode and one simulation
// for the calls that make them. The totals are the report's only timings.
func TestStageSpanCounts(t *testing.T) {
	p, err := Compile(npb.Get("CG").Source(16, npb.Small))
	if err != nil {
		t.Fatal(err)
	}
	rec := ftrace.New(0)
	obs.Attach(obs.New(), rec)
	defer obs.Attach(nil, nil)
	count := func(names ...string) int64 {
		var n int64
		for _, tot := range rec.Totals() {
			if slices.Contains(names, tot.Name) {
				n += tot.Count
			}
		}
		return n
	}
	want := func(stage string, got, n int64) {
		t.Helper()
		if got != n {
			t.Errorf("%s spans = %d, want %d (totals %+v)", stage, got, n, rec.Totals())
		}
	}
	res, err := p.Trace(16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want("finish", count("finish"), 16)
	want("pair", count("pair"), 15)
	want("run", count("run"), 1)
	want("reduce", count("reduce"), 1)
	var buf bytes.Buffer
	if _, err := res.WriteTrace(&buf, FormatRaw); err != nil {
		t.Fatal(err)
	}
	want("encode", count("encode"), 1)
	if _, err := OpenTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	want("decode", count("decode", "decode_select"), 1)
	if _, err := res.PredictPar(0); err != nil {
		t.Fatal(err)
	}
	want("simulate", count("simulate"), 1)
}

// TestDetachedSinkStaysQuiet: a sink attached for one traced run hears from
// both the compressors and the merge, and once detached it hears nothing
// from a second run — no layer keeps a sink of its own past the switch.
func TestDetachedSinkStaysQuiet(t *testing.T) {
	w := npb.Get("CG")
	p, err := Compile(w.Source(16, npb.Small))
	if err != nil {
		t.Fatal(err)
	}
	s := obs.New()
	obs.Attach(s, nil)
	_, err = p.Trace(16, Options{})
	obs.Attach(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	attached := s.Report()
	for _, key := range []string{"comp_events", "merge_pairs"} {
		if attached.Counters[key] == 0 {
			t.Errorf("attached run left %s empty", key)
		}
	}
	if _, err := p.Trace(16, Options{}); err != nil {
		t.Fatal(err)
	}
	if after := s.Report(); !reflect.DeepEqual(after.Counters, attached.Counters) {
		t.Errorf("detached sink moved: before %v, after %v", attached.Counters, after.Counters)
	}
}

const jacobi = `
func main() {
	for var k = 0; k < 10; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 8000, 0); }
		if rank > 0 { recv(rank - 1, 8000, 0); }
		if rank > 0 { send(rank - 1, 8000, 0); }
		if rank < size - 1 { recv(rank + 1, 8000, 0); }
		compute(100000);
	}
	reduce(0, 8);
}`

func TestCompileSurfaceErrors(t *testing.T) {
	if _, err := Compile("func main( {"); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := Compile("func f() { }"); err == nil {
		t.Fatal("check error not surfaced")
	}
	p, err := Compile(jacobi)
	if err != nil {
		t.Fatal(err)
	}
	if p.CST.NumVertices() < 5 {
		t.Fatalf("CST too small: %d vertices", p.CST.NumVertices())
	}
	if len(p.Recursive) != 0 {
		t.Fatal("jacobi is not recursive")
	}
}

func TestTraceReplayPredictPipeline(t *testing.T) {
	p, err := Compile(jacobi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Trace(8, Options{KeepRaw: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedNS <= 0 {
		t.Fatal("no simulated time")
	}
	for rank := 0; rank < 8; rank++ {
		seq, err := res.Replay(rank)
		if err != nil {
			t.Fatal(err)
		}
		if err := replay.Equivalent(res.Raw[rank], seq); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	pred, err := res.PredictPar(0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := pred.TotalNS / res.SimulatedNS
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("prediction off by %.2fx", ratio)
	}
}

func TestWriteReadTrace(t *testing.T) {
	p, err := Compile(jacobi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Trace(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := res.WriteTrace(&buf, FormatRaw)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("write: %v (%d vs %d)", err, n, buf.Len())
	}
	back, err := OpenTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Merged.NumRanks != 4 {
		t.Fatalf("NumRanks = %d", back.Merged.NumRanks)
	}
	var gz bytes.Buffer
	zn, err := res.WriteTrace(&gz, FormatGzip)
	if err != nil || zn <= 0 {
		t.Fatalf("gzip write: %v (%d)", err, zn)
	}
	if _, err := res.WriteTrace(io.Discard, FormatBlocked+1); err == nil {
		t.Fatal("WriteTrace accepted a format it does not define")
	}
}

// TestOneReaderOneVerdict pins what each container tolerates after its last
// byte, for every way a file is read: there is one reader under OpenTrace and
// merge.Decode, so they cannot disagree. Raw tolerates trailing bytes (the
// CYPI sidecar rides there), gzip needs one complete CRC-valid member and
// ignores what follows, CYPB is strict — its footer and trailer end the file.
func TestOneReaderOneVerdict(t *testing.T) {
	p, err := Compile(jacobi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Trace(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var raw, gz, blocked bytes.Buffer
	if _, err := res.WriteTrace(&raw, FormatRaw); err != nil {
		t.Fatal(err)
	}
	if _, err := res.WriteTrace(&gz, FormatGzip); err != nil {
		t.Fatal(err)
	}
	if _, err := res.WriteTrace(&blocked, FormatBlocked); err != nil {
		t.Fatal(err)
	}
	garbage := func(b []byte) []byte { return append(bytes.Clone(b), "garbage!"...) }
	truncated := func(b []byte) []byte { return b[:len(b)-3] }
	for _, tc := range []struct {
		name string
		in   []byte
		ok   bool
	}{
		{"raw/clean", raw.Bytes(), true},
		{"raw/garbage", garbage(raw.Bytes()), true},
		{"raw/truncated", truncated(raw.Bytes()), false},
		{"gzip/clean", gz.Bytes(), true},
		{"gzip/garbage", garbage(gz.Bytes()), true},
		{"gzip/truncated", truncated(gz.Bytes()), false},
		{"cypb/clean", blocked.Bytes(), true},
		{"cypb/garbage", garbage(blocked.Bytes()), false},
		{"cypb/truncated", truncated(blocked.Bytes()), false},
	} {
		_, full := OpenTrace(tc.in)
		_, projected := OpenTrace(tc.in, 0)
		_, stream := merge.Decode(bytes.NewReader(tc.in))
		for how, err := range map[string]error{"OpenTrace": full, "OpenTrace(rank 0)": projected, "merge.Decode": stream} {
			if (err == nil) != tc.ok {
				t.Errorf("%s: %s = %v, want ok=%t", tc.name, how, err, tc.ok)
			}
		}
	}
}

func TestCommMatrix(t *testing.T) {
	p, err := Compile(jacobi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Trace(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := res.CommMatrixPar(0)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest-neighbor stencil: rank 1 talks to 0 and 2, 10 iterations of
	// 8000 bytes each way.
	if mat[1][0] != 80000 || mat[1][2] != 80000 {
		t.Fatalf("matrix row 1 = %v", mat[1])
	}
	if mat[0][2] != 0 || mat[0][3] != 0 {
		t.Fatalf("non-neighbors communicated: %v", mat[0])
	}
}

func TestWorkloadRegistryExposed(t *testing.T) {
	if Workload("CG") == nil {
		t.Fatal("workload registry not exposed")
	}
	w := Workload("CG")
	src := w.Source(8, 0)
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("CG compile: %v", err)
	}
	res, err := p.Trace(8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.EventCount == 0 {
		t.Fatal("no events traced")
	}
}

func TestHistogramTimeMode(t *testing.T) {
	p, err := Compile(jacobi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Trace(4, Options{TimeMode: TimeHistogram}); err != nil {
		t.Fatal(err)
	}
}

// ringExchange is a simulatable wraparound exchange with three rank groups
// (interior ranks plus the two wraparound edges, which differ in peer only and
// so replay as one class), used to check the streaming pipeline against the
// materializing reference implementations.
const ringExchange = `
func main() {
	for var k = 0; k < 6; k = k + 1 {
		isend((rank + 1) % size, 4096, 1);
		irecv((rank + size - 1) % size, 4096, 1);
		waitall();
		compute(20000);
	}
	allreduce(8);
}`

// referenceSequences materializes every rank through the oracle the streaming
// replayer is held to: replay.Sequence over the rankView tree walk.
func referenceSequences(m *merge.Merged) ([][]trace.Event, error) {
	seqs := make([][]trace.Event, m.NumRanks)
	for rank := range seqs {
		seq, err := replay.Sequence(m.ForRank(rank), rank)
		if err != nil {
			return nil, err
		}
		seqs[rank] = seq
	}
	return seqs, nil
}

// referencePredict is the materializing reference for PredictPar: the oracle's
// sequences through the slice-fed simulator entry.
func referencePredict(r *Result) (simmpi.Result, error) {
	seqs, err := referenceSequences(r.Merged)
	if err != nil {
		return simmpi.Result{}, err
	}
	return simmpi.Simulate(seqs, r.params)
}

// referenceCommMatrix is the serial materializing reference for CommMatrixPar,
// with the same out-of-range peer check.
func referenceCommMatrix(m *merge.Merged) ([][]int64, error) {
	seqs, err := referenceSequences(m)
	if err != nil {
		return nil, err
	}
	n := m.NumRanks
	mat := make([][]int64, n)
	for rank, seq := range seqs {
		mat[rank] = make([]int64, n)
		for i := range seq {
			e := &seq[i]
			if !e.Op.IsSendLike() {
				continue
			}
			if e.Peer < 0 || e.Peer >= n {
				return nil, commPeerError(rank, e, n)
			}
			mat[rank][e.Peer] += int64(e.Size)
		}
	}
	return mat, nil
}

// TestStreamingMatchesMaterialized pins the streaming guarantee end to end:
// the Replay/PredictPar/CommMatrixPar paths produce exactly what the materializing
// references above produce, at 7 and 64 ranks, for both the open-chain jacobi
// and the wraparound ring.
func TestStreamingMatchesMaterialized(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		n    int
	}{
		{"jacobi7", jacobi, 7},
		{"jacobi64", jacobi, 64},
		{"ring7", ringExchange, 7},
		{"ring64", ringExchange, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Trace(tc.n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < tc.n; rank++ {
				want, err := replay.Sequence(res.Merged.ForRank(rank), rank)
				if err != nil {
					t.Fatal(err)
				}
				got, err := res.Replay(rank)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("rank %d: streaming Replay differs from rankView sequence", rank)
				}
				streamed := 0
				if err := res.ReplayEvents(rank, func(*trace.Event) { streamed++ }); err != nil {
					t.Fatal(err)
				}
				if streamed != len(want) {
					t.Fatalf("rank %d: ReplayEvents emitted %d events, want %d", rank, streamed, len(want))
				}
			}
			wantPred, err := referencePredict(res)
			if err != nil {
				t.Fatal(err)
			}
			gotPred, err := res.PredictPar(0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantPred, gotPred) {
				t.Fatalf("streaming Predict differs from materialized:\n got %+v\nwant %+v", gotPred, wantPred)
			}
			for _, workers := range []int{1, 2, 4, 0} {
				parPred, err := res.PredictPar(workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantPred, parPred) {
					t.Fatalf("PredictPar(%d) differs from materialized:\n got %+v\nwant %+v",
						workers, parPred, wantPred)
				}
			}
			wantMat, err := referenceCommMatrix(res.Merged)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 0} {
				gotMat, err := res.CommMatrixPar(workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantMat, gotMat) {
					t.Fatalf("workers=%d: streaming CommMatrix differs from materialized", workers)
				}
			}
		})
	}
}

// TestCommMatrixBadPeerSurfaced pins the chosen behavior for send events
// whose replayed peer lies outside [0, ranks): both the streaming and the
// materialized matrix return an error instead of silently dropping the
// volume (the pre-fix implementation skipped such events, understating the
// matrix whenever the trace and the rank count disagreed).
func TestCommMatrixBadPeerSurfaced(t *testing.T) {
	p, err := Compile(ringExchange)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Trace(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Forge a trace/rank-count disagreement: with NumRanks lowered, rank 2's
	// send to rank 3 replays to a peer outside [0,3). The error must name the
	// offending rank, the comm leaf's GID, and the peer value, so a trace/job
	// mismatch is diagnosable without re-running under a debugger.
	res.Merged.NumRanks = 3
	wantErr := regexp.MustCompile(`rank 2 \S+ at gid \d+ to peer 3 outside \[0,3\)`)
	if _, err := res.CommMatrixPar(0); err == nil {
		t.Error("streaming CommMatrix: out-of-range peer not surfaced")
	} else if !wantErr.MatchString(err.Error()) {
		t.Errorf("streaming CommMatrix error %q does not match %v", err, wantErr)
	}
	if _, err := referenceCommMatrix(res.Merged); err == nil {
		t.Error("materialized CommMatrix: out-of-range peer not surfaced")
	} else if !wantErr.MatchString(err.Error()) {
		t.Errorf("materialized CommMatrix error %q does not match %v", err, wantErr)
	}
	// An intact trace still computes (and the two paths agree: covered by
	// TestStreamingMatchesMaterialized).
	res2, err := p.Trace(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res2.CommMatrixPar(0); err != nil {
		t.Errorf("intact trace: unexpected error %v", err)
	}
}
