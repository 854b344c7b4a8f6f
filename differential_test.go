package cypress

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/trace"
)

// readPath is one way a stored trace comes back as a Result: a container, a
// decoder and, for the corpus rows, a store in between. open builds its
// Result fresh from the in-memory run's bytes — never by copying mem, whose
// streamOnce may have fired, which would silently replay the in-memory tree.
// prior is another run of the same program on a slightly different network:
// the same structural class, other timings. ranks is the projection the path
// decodes under, nil for a whole trace. A new read path is one more row of
// readPaths.
type readPath struct {
	name  string
	ranks []int
	open  func(t *testing.T, mem, prior *Result) (res *Result, release func())
}

// fromBytes is a read path that writes mem with write and opens the bytes
// with OpenTrace — the constructor the CLIs use. With no ranks every section
// decodes; with ranks only the sections those ranks touch do, and the Result
// serves those ranks alone. noRank selects no section. The bytes are zeroed
// once opened: the Result must keep nothing of them.
func fromBytes(name string, write func(mem *Result, w io.Writer) (int64, error), ranks ...int) readPath {
	return readPath{name, ranks, func(t *testing.T, mem, _ *Result) (*Result, func()) {
		var buf bytes.Buffer
		if _, err := write(mem, &buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		res, err := OpenTrace(buf.Bytes(), 1, ranks...)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		clear(buf.Bytes())
		return res, func() {}
	}}
}

// noRank is a rank no run has: projecting it selects no section.
const noRank = -1

// getRanks serves id from c: whole with no ranks, projected onto ranks
// otherwise.
func getRanks(c *Corpus, id TraceID, ranks []int) (*Result, func(), error) {
	if ranks == nil {
		return c.Get(id)
	}
	return c.GetProjected(id, ranks...)
}

// fromCorpus is a read path that ingests mem into an empty corpus and serves
// it back cold, projected onto ranks when there are any.
func fromCorpus(name string, ranks ...int) readPath {
	return readPath{name, ranks, func(t *testing.T, mem, _ *Result) (*Result, func()) {
		c, err := OpenCorpus(t.TempDir(), CorpusOptions{})
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Ingest(mem)
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		res, release, err := getRanks(c, id, ranks)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		return res, func() {
			release()
			if err := c.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	}}
}

// fromCorpusDelta is the read path of a run that is not the first of its
// class: prior is ingested first and becomes the class representative, mem is
// stored as a delta against it, and the corpus is closed and reopened before
// mem is served cold — so the class's read plan is built from the class
// file, and the record is read out of a sealed segment that holds two, by the
// frames that cover it.
func fromCorpusDelta(name string, ranks ...int) readPath {
	return readPath{name, ranks, func(t *testing.T, mem, prior *Result) (*Result, func()) {
		dir := t.TempDir()
		c, err := OpenCorpus(dir, CorpusOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ingest(prior); err != nil {
			t.Fatalf("ingest prior: %v", err)
		}
		id, err := c.Ingest(mem)
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		if st, err := c.Stats(); err != nil || st.Classes != 1 || st.DeltaRuns != 2 {
			t.Fatalf("the two runs are not two deltas of one class: %+v, %v", st, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if c, err = OpenCorpus(dir, CorpusOptions{}); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if st, err := c.Stats(); err != nil || st.Segments != 1 || st.Runs != 2 {
			t.Fatalf("the two runs are not in one sealed segment: %+v, %v", st, err)
		}
		res, release, err := getRanks(c, id, ranks)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		return res, func() {
			release()
			if err := c.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	}}
}

func writePlain(mem *Result, w io.Writer) (int64, error)   { return mem.WriteTrace(w, FormatRaw) }
func writeGzip(mem *Result, w io.Writer) (int64, error)    { return mem.WriteTrace(w, FormatGzip) }
func writeBlocked(mem *Result, w io.Writer) (int64, error) { return mem.WriteTrace(w, FormatBlocked) }
func writeIndexed(mem *Result, w io.Writer) (int64, error) { return mem.WriteTrace(w, FormatIndexed) }

// writeIndexedGzip wraps an indexed encoding in one gzip member. No Format
// writes that layout any more, but files older writers left must still open.
// It reports no byte count: fromBytes reads none.
func writeIndexedGzip(mem *Result, w io.Writer) (int64, error) {
	zw := gzip.NewWriter(w)
	if _, err := mem.WriteTrace(zw, FormatIndexed); err != nil {
		return 0, err
	}
	return 0, zw.Close()
}

var readPaths = []readPath{
	fromBytes("decode/plain", writePlain),
	fromBytes("decode/gzip", writeGzip),
	fromBytes("decode/cypb", writeBlocked),
	fromBytes("select/indexed/rank1", writeIndexed, 1),
	fromBytes("select/indexed/none", writeIndexed, noRank),
	fromBytes("select/indexed-gzip/rank1", writeIndexedGzip, 1),
	fromBytes("select/plain/rank1", writePlain, 1),
	fromBytes("select/plain/none", writePlain, noRank),
	fromBytes("select/cypb/rank1", writeBlocked, 1),
	fromCorpus("corpus/get"),
	fromCorpus("corpus/get-projected", 1),
	fromCorpus("corpus/get-projected/none", noRank),
	fromCorpusDelta("corpus/get/delta"),
	fromCorpusDelta("corpus/get-projected/delta", 1),
}

// diffEvents compares two replayed sequences field for field. Request lists
// compare by value: a record built by the compressor may hold an empty
// non-nil list where a decoded one holds nil.
func diffEvents(want, got []trace.Event) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := &want[i], &got[i]
		if a.Op != b.Op || a.GID != b.GID || a.Size != b.Size || a.Peer != b.Peer ||
			a.Tag != b.Tag || a.Comm != b.Comm || a.Wildcard != b.Wildcard || a.ReqID != b.ReqID ||
			!slices.Equal(a.Reqs, b.Reqs) || !slices.Equal(a.ReqSrcs, b.ReqSrcs) ||
			a.DurationNS != b.DurationNS || a.ComputeNS != b.ComputeNS {
			return fmt.Errorf("event %d:\n got %s\nwant %s", i, fields(b), fields(a))
		}
	}
	return nil
}

// fields spells out what diffEvents compares (Event's String names only the
// operation).
func fields(e *trace.Event) string {
	return fmt.Sprintf("%v gid=%d size=%d peer=%d tag=%d comm=%d wild=%v req=%d reqs=%v srcs=%v dur=%v compute=%v",
		e.Op, e.GID, e.Size, e.Peer, e.Tag, e.Comm, e.Wildcard, e.ReqID, e.Reqs, e.ReqSrcs,
		e.DurationNS, e.ComputeNS)
}

// TestDecodedMatchesInMemory is the one differential test for "decoded ≡
// in-memory": for every npb workload and every read path, each rank's replay
// equals the in-memory tree's replay in every field — including the call-site
// GID, which is not on the wire — and the LogGP prediction is bit-equal.
// Prediction is where a lost GID shows: a wait whose requests name GIDs that
// no replayed Irecv carries does not wait for its messages.
func TestDecodedMatchesInMemory(t *testing.T) {
	for _, w := range npb.All() {
		for _, n := range []int{16, 64} {
			if !w.ValidProcs(n) {
				t.Fatalf("%s does not run on %d ranks", w.Name, n)
			}
			t.Run(fmt.Sprintf("%s/n%d", w.Name, n), func(t *testing.T) {
				p, err := Compile(w.Source(n, npb.Small))
				if err != nil {
					t.Fatal(err)
				}
				mem, err := p.Trace(n, Options{})
				if err != nil {
					t.Fatal(err)
				}
				wantSeqs := make([][]trace.Event, n)
				for rank := range wantSeqs {
					if wantSeqs[rank], err = mem.Replay(rank); err != nil {
						t.Fatal(err)
					}
					for i := range wantSeqs[rank] {
						if wantSeqs[rank][i].GID < 0 {
							t.Fatalf("rank %d event %d: in-memory replay carries GID %d",
								rank, i, wantSeqs[rank][i].GID)
						}
					}
				}
				wantPred, err := mem.PredictPar(1)
				if err != nil {
					t.Fatalf("in-memory predict: %v", err)
				}
				net := mpisim.DefaultParams()
				net.LatencyNS += 3
				net.OverheadNS++
				prior, err := p.Trace(n, Options{Params: &net})
				if err != nil {
					t.Fatal(err)
				}
				for _, rp := range readPaths {
					t.Run(rp.name, func(t *testing.T) {
						res, release := rp.open(t, mem, prior)
						defer release()
						for rank := 0; rank < n; rank++ {
							got, err := res.Replay(rank)
							if rp.ranks != nil && !slices.Contains(rp.ranks, rank) {
								if err == nil {
									t.Fatalf("rank %d is outside the projection and replays", rank)
								}
								continue
							}
							if err != nil {
								t.Fatalf("rank %d: %v", rank, err)
							}
							if err := diffEvents(wantSeqs[rank], got); err != nil {
								t.Fatalf("rank %d: %v", rank, err)
							}
						}
						if rp.ranks != nil {
							refusesWholeTree(t, res)
							return
						}
						gotPred, err := res.PredictPar(1)
						if err != nil {
							t.Fatalf("predict: %v", err)
						}
						if !reflect.DeepEqual(wantPred, gotPred) {
							t.Fatalf("prediction differs from in-memory: total %v vs %v ns",
								gotPred.TotalNS, wantPred.TotalNS)
						}
					})
				}
			})
		}
	}
}

// refusesWholeTree checks that every use of a projected Result that reads
// all ranks returns an error, and none panics.
func refusesWholeTree(t *testing.T, res *Result) {
	t.Helper()
	if _, err := res.PredictPar(1); err == nil {
		t.Error("PredictPar over a projection returned no error")
	}
	if _, err := res.CommMatrixPar(1); err == nil {
		t.Error("CommMatrixPar over a projection returned no error")
	}
	for _, f := range []Format{FormatRaw, FormatGzip, FormatIndexed, FormatBlocked} {
		if _, err := res.WriteTrace(io.Discard, f); err == nil {
			t.Errorf("WriteTrace format %d of a projection returned no error", f)
		}
	}
}
