package main

// The canonical pipeline op, the layer probes of a traced run, and the
// oracle. One op has the same shape on every workload:
//
//	1 capture     per run: replay the recorded sink streams into fresh
//	              compressors, Finish, merge.All with one worker
//	2 write       per run: encode v1, v1+index and CYPB, write the CYPB file;
//	              then create a corpus, ingest every v1 encoding, seal it
//	3 open        reopen the corpus with the serving cache off, Get each trace
//	4 rank_query  Q cold GetProjected + single-rank replay
//	5 replay      stream every rank of the last run through a counter
//	6 predict     PredictPar(1), CommMatrixPar(1) on the same Result
//	7 maintain    reopen with the cache on, fill it, Get each trace warm,
//	              GetBytes, Delete a quarter of the runs, GC, Close
//
// Everything runs on the calling goroutine with worker counts of one.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	cypress "repro"
	"repro/internal/ctt"
	"repro/internal/merge"
	"repro/internal/simmpi"
	"repro/internal/trace"
)

// series collects samples by metric or span name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// expected is what the oracle pass establishes and every timed op must
// reproduce exactly.
type expected struct {
	encodedBytes int64
	predictedNS  float64
}

type runner struct {
	fx    *fixture
	tr    *tracer
	tmp   string // parent of the per-op directories
	nproc int
	s     series
	want  expected
}

func newRunner(fx *fixture, tmp string) *runner {
	return &runner{fx: fx, tr: newTracer(), tmp: tmp, nproc: runtime.GOMAXPROCS(0), s: series{}}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// compress replays one recorded run into fresh per-rank compressors and
// finishes them. Allocation counts are taken on traced ops only: reading
// them stops the world.
func (r *runner) compress(run *recordedRun) []*ctt.RankCTT {
	tr := r.tr
	var m0 uint64
	if tr.on {
		m0 = mallocs()
	}
	sp := tr.begin("ctt.compress")
	comps := make([]*ctt.Compressor, len(run.ranks))
	for rank := range run.ranks {
		comps[rank] = newCompressor(r.fx.prog, rank)
		run.ranks[rank].replay(comps[rank])
	}
	d := tr.end(sp)
	sp = tr.begin("ctt.finish")
	ctts := make([]*ctt.RankCTT, len(comps))
	for rank, c := range comps {
		ctts[rank] = finish(c)
	}
	d += tr.end(sp)
	if tr.on {
		r.s.add("ctt.allocs_per_event", float64(mallocs()-m0)/float64(run.events))
		r.s.add("ctt.ns_per_event", float64(d.Nanoseconds())/float64(run.events))
	}
	return ctts
}

// capture is stage 1 for one run.
func (r *runner) capture(run *recordedRun) (*merge.Merged, error) {
	ctts := r.compress(run)
	tr := r.tr
	var m0 uint64
	if tr.on {
		m0 = mallocs()
	}
	sp := tr.begin("merge.all")
	m, err := mergeAll(ctts, 1)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if tr.on {
		r.s.add("merge.allocs", float64(mallocs()-m0))
	}
	return m, nil
}

// timedOp runs one op in a fresh directory and records its end-to-end
// samples. The directory is removed after the op, outside its timing.
func (r *runner) timedOp(id int) error {
	dir, err := os.MkdirTemp(r.tmp, "op-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.tr.op = int32(id)
	sp := r.tr.begin("op")
	err = r.pipeline(dir)
	d := r.tr.end(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		if sp.idx >= 0 { // drop the failed op's spans, some of them still open
			r.tr.spans, r.tr.cur = r.tr.spans[:sp.idx], -1
		}
		return err
	}
	if r.tr.on {
		r.s.add("pipeline_traced_s", d.Seconds())
	} else {
		r.s.add("pipeline_s", d.Seconds())
	}
	r.s.add("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	return nil
}

func (r *runner) pipeline(dir string) error {
	fx, tr, s := r.fx, r.tr, r.s
	nruns := len(fx.runs)

	// 1 capture
	st := tr.begin("capture")
	merged := make([]*merge.Merged, nruns)
	var events int64
	for i := range fx.runs {
		m, err := r.capture(&fx.runs[i])
		if err != nil {
			return fmt.Errorf("capture run %d: %w", i, err)
		}
		merged[i] = m
		events += fx.runs[i].events
	}
	d := tr.end(st)
	s.add("capture_ns_per_event", float64(d.Nanoseconds())/float64(events))

	// 2 write
	st = tr.begin("write")
	encs := make([][]byte, nruns)
	for i, m := range merged {
		var v1, indexed, blocked bytes.Buffer
		sp := tr.begin("merge.encode")
		_, err := encode(m, &v1)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("encode run %d: %w", i, err)
		}
		encs[i] = v1.Bytes()
		sp = tr.begin("merge.encode_indexed")
		_, err = encodeIndexed(m, &indexed)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("encode indexed run %d: %w", i, err)
		}
		sp = tr.begin("blockio.encode")
		_, err = encodeBlocked(m, &blocked, 1)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("encode blocked run %d: %w", i, err)
		}
		sp = tr.begin("file.write")
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%d.cypb", i)), blocked.Bytes(), 0o644)
		tr.end(sp)
		if err != nil {
			return err
		}
		if tr.on && i == nruns-1 { // sizes are reported for the last run, like encoded_bytes
			s.add("ctt.events", float64(fx.runs[i].events))
			s.add("merge.entries", float64(mergedGroups(m)))
			s.add("merge.encoded_bytes", float64(v1.Len()))
			s.add("merge.index_bytes", float64(indexed.Len()-v1.Len()))
			s.add("blockio.bytes", float64(blocked.Len()))
		}
	}
	store := filepath.Join(dir, "corpus")
	sp := tr.begin("corpus.create")
	c, err := openCorpus(store, -1)
	tr.end(sp)
	if err != nil {
		return err
	}
	ids := make([]cypress.TraceID, nruns)
	for i, enc := range encs {
		sp = tr.begin("corpus.ingest")
		ids[i], err = ingestBytes(c, enc)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("ingest run %d: %w", i, err)
		}
	}
	sp = tr.begin("corpus.seal")
	err = closeCorpus(c)
	tr.end(sp)
	if err != nil {
		return err
	}
	s.add("write_s", tr.end(st).Seconds())
	lastEnc := int64(len(encs[nruns-1]))
	s.add("encoded_bytes", float64(lastEnc))
	if lastEnc != r.want.encodedBytes {
		return fmt.Errorf("encoded %d bytes, oracle pass encoded %d", lastEnc, r.want.encodedBytes)
	}

	// 3 open
	st = tr.begin("open")
	sp = tr.begin("corpus.open")
	c, err = openCorpus(store, -1)
	tr.end(sp)
	if err != nil {
		return err
	}
	var last *cypress.Result
	for i, id := range ids {
		sp = tr.begin("corpus.get_cold")
		res, release, err := get(c, id)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("get run %d: %w", i, err)
		}
		defer release()
		last = res
	}
	s.add("open_s", tr.end(st).Seconds()/float64(nruns))
	stats, err := corpusStats(c)
	if err != nil {
		return err
	}
	s.add("archive_bytes_per_run", float64(stats.DiskBytes)/float64(nruns))
	if tr.on {
		s.add("corpus.disk_bytes", float64(stats.DiskBytes))
		s.add("corpus.dedup_ratio", float64(stats.LogicalBytes)/float64(stats.DiskBytes))
		s.add("corpus.delta_runs", float64(stats.DeltaRuns))
	}

	// 4 rank query
	st = tr.begin("rank_query")
	for _, q := range fx.queries {
		n := 0
		t0 := time.Now()
		sp = tr.begin("corpus.get_projected")
		res, release, err := getProjected(c, ids[q.run], q.rank)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("get projected run %d rank %d: %w", q.run, q.rank, err)
		}
		sp = tr.begin("replay.rank")
		err = replayRank(res, q.rank, func(*trace.Event) { n++ })
		tr.end(sp)
		release()
		s.add("rank_query_s", time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("replay run %d rank %d: %w", q.run, q.rank, err)
		}
		if want := len(fx.runs[q.run].ranks[q.rank].events); n != want {
			return fmt.Errorf("run %d rank %d replayed %d events, recorded %d", q.run, q.rank, n, want)
		}
	}
	tr.end(st)

	// 5 replay
	st = tr.begin("replay")
	strm := streamerOf(last)
	var replayed int64
	sp = tr.begin("replay.all")
	err = replayAll(strm, 1, func(int, *trace.Event) { replayed++ })
	d = tr.end(sp)
	tr.end(st)
	if err != nil {
		return fmt.Errorf("replay all: %w", err)
	}
	if want := fx.runs[nruns-1].events; replayed != want || mergedEvents(last.Merged) != want {
		return fmt.Errorf("replayed %d events, recorded %d", replayed, want)
	}
	s.add("replay_mevents_per_s", float64(replayed)/d.Seconds()/1e6)
	if tr.on {
		s.add("replay.events", float64(replayed))
		s.add("replay.classes", float64(classCount(strm)))
	}

	// 6 predict
	st = tr.begin("predict")
	sp = tr.begin("simmpi.predict")
	pred, err := predict(last, 1)
	s.add("predict_s", tr.end(sp).Seconds())
	if err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	sp = tr.begin("replay.commmatrix")
	_, err = commMatrix(last, 1)
	tr.end(sp)
	tr.end(st)
	if err != nil {
		return fmt.Errorf("comm matrix: %w", err)
	}
	if pred.TotalNS != r.want.predictedNS {
		return fmt.Errorf("predicted %v ns, oracle pass predicted %v", pred.TotalNS, r.want.predictedNS)
	}

	// 7 maintain
	st = tr.begin("maintain")
	defer tr.end(st)
	sp = tr.begin("corpus.close")
	err = closeCorpus(c)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("corpus.open")
	c, err = openCorpus(store, 0)
	tr.end(sp)
	if err != nil {
		return err
	}
	for _, name := range []string{"corpus.get_fill", "corpus.get_warm"} {
		for i, id := range ids {
			sp = tr.begin(name)
			_, release, err := get(c, id)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			release()
		}
	}
	sp = tr.begin("corpus.get_bytes")
	got, err := getBytes(c, ids[nruns-1])
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("get bytes: %w", err)
	}
	if len(got) != len(encs[nruns-1]) {
		return fmt.Errorf("get bytes returned %d bytes, ingested %d", len(got), len(encs[nruns-1]))
	}
	for i := 0; i < nruns/4; i++ {
		sp = tr.begin("corpus.delete")
		err = deleteTrace(c, ids[i])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("delete run %d: %w", i, err)
		}
	}
	sp = tr.begin("corpus.gc")
	err = gcCorpus(c)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("gc: %w", err)
	}
	sp = tr.begin("corpus.close")
	err = closeCorpus(c)
	tr.end(sp)
	return err
}

// sample times fn until three samples or 0.3 s have accumulated.
func (r *runner) sample(name string, fn func() error) error {
	var total time.Duration
	for i := 0; i < 3 && total < 300*time.Millisecond; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t0)
		total += d
		r.s.add(name, d.Seconds())
	}
	return nil
}

// probes measures the layer entry points the op does not call, or calls only
// through a facade: multi-worker variants, gzip, standalone decode and
// select, skeleton preparation and the bare simulator.
func (r *runner) probes() error {
	run := &r.fx.runs[len(r.fx.runs)-1]
	rank := r.fx.queries[0].rank
	var m *merge.Merged
	for i := 0; i < 2; i++ { // merging consumes the per-rank trees, so each sample compresses afresh
		ctts := r.compress(run)
		t0 := time.Now()
		var err error
		if m, err = mergeAll(ctts, r.nproc); err != nil {
			return fmt.Errorf("merge.all_wN_s: %w", err)
		}
		r.s.add("merge.all_wN_s", time.Since(t0).Seconds())
	}

	var v1, indexed, gz, blocked bytes.Buffer
	if _, err := encode(m, &v1); err != nil {
		return err
	}
	if _, err := encodeIndexed(m, &indexed); err != nil {
		return err
	}
	if _, err := encodeBlocked(m, &blocked, 1); err != nil {
		return err
	}
	if err := r.sample("merge.encode_gzip_s", func() error {
		gz.Reset()
		_, err := encodeGzip(m, &gz)
		return err
	}); err != nil {
		return err
	}
	r.s.add("merge.gzip_bytes", float64(gz.Len()))
	var dec *merge.Merged
	if err := r.sample("merge.decode_s", func() error {
		var err error
		dec, err = decode(v1.Bytes())
		return err
	}); err != nil {
		return err
	}
	if err := r.sample("merge.select_s", func() error {
		_, err := decodeSelect(indexed.Bytes(), rank)
		return err
	}); err != nil {
		return err
	}
	if err := r.sample("blockio.encode_wN_s", func() error {
		var buf bytes.Buffer
		_, err := encodeBlocked(m, &buf, r.nproc)
		return err
	}); err != nil {
		return err
	}
	if err := r.sample("blockio.decode_s", func() error {
		_, err := decode(blocked.Bytes())
		return err
	}); err != nil {
		return err
	}

	var strm *merge.Streamer
	if err := r.sample("replay.prepare_s", func() error {
		strm = newStreamer(dec) // a fresh streamer each time: Prepare memoizes
		return prepare(strm, 1)
	}); err != nil {
		return err
	}
	var preds [2]simmpi.Result
	for i, w := range []struct {
		name    string
		workers int
	}{{"simmpi.simulate_s", 1}, {"simmpi.simulate_wN_s", r.nproc}} {
		if err := r.sample(w.name, func() error {
			srcs, err := cursors(strm)
			if err != nil {
				return err
			}
			preds[i], err = simulate(srcs, w.workers)
			return err
		}); err != nil {
			return err
		}
	}
	if preds[0].TotalNS != preds[1].TotalNS {
		return fmt.Errorf("simulate: %v ns with 1 worker, %v with %d", preds[0].TotalNS, preds[1].TotalNS, r.nproc)
	}
	r.s.add("simmpi.predicted_ns", preds[0].TotalNS)
	r.s.add("simmpi.events_per_s", float64(run.events)/median(r.s["simmpi.simulate_s"]))
	return nil
}

func cursors(s *merge.Streamer) ([]simmpi.EventSource, error) {
	srcs := make([]simmpi.EventSource, s.NumRanks())
	for rank := range srcs {
		cur, err := cursor(s, rank)
		if err != nil {
			return nil, err
		}
		srcs[rank] = cur
	}
	return srcs, nil
}

// verify is the oracle. It makes its own pass over the pipeline, outside
// every timed region, and checks the properties a user relies on:
//
//   - sequence preservation: every rank's replay of the corpus-served trace
//     hashes equal to the raw recorded event sequence, for every run;
//   - the corpus returns exactly the bytes it was given;
//   - the prediction does not depend on the worker count;
//   - the communication matrix's row sums equal the raw send volume.
//
// It returns one line per mismatch, and the values timed ops must reproduce.
func verify(fx *fixture, tmp string, nproc int) (expected, []string, error) {
	var want expected
	var bad []string
	dir, err := os.MkdirTemp(tmp, "oracle-")
	if err != nil {
		return want, nil, err
	}
	defer os.RemoveAll(dir)
	r := newRunner(fx, tmp)
	c, err := openCorpus(dir, -1)
	if err != nil {
		return want, nil, err
	}
	encs := make([][]byte, len(fx.runs))
	ids := make([]cypress.TraceID, len(fx.runs))
	for i := range fx.runs {
		m, err := r.capture(&fx.runs[i])
		if err != nil {
			return want, nil, err
		}
		var buf bytes.Buffer
		if _, err := encode(m, &buf); err != nil {
			return want, nil, err
		}
		encs[i] = buf.Bytes()
		if ids[i], err = ingestBytes(c, encs[i]); err != nil {
			return want, nil, err
		}
	}
	if err := closeCorpus(c); err != nil {
		return want, nil, err
	}
	want.encodedBytes = int64(len(encs[len(encs)-1]))

	if c, err = openCorpus(dir, 0); err != nil {
		return want, nil, err
	}
	defer closeCorpus(c)
	var last *cypress.Result
	for i := range fx.runs {
		run := &fx.runs[i]
		got, err := getBytes(c, ids[i])
		if err != nil {
			return want, nil, err
		}
		if !bytes.Equal(got, encs[i]) {
			bad = append(bad, fmt.Sprintf("run %d: GetBytes differs from the ingested encoding", i))
		}
		res, release, err := get(c, ids[i])
		if err != nil {
			return want, nil, err
		}
		defer release()
		hashes := make([]uint64, len(run.ranks))
		if err := replayAll(streamerOf(res), 1, func(rank int, e *trace.Event) {
			hashes[rank] = hashEvent(hashes[rank], e)
		}); err != nil {
			return want, nil, err
		}
		for rank, h := range hashes {
			if h != run.hashes[rank] {
				bad = append(bad, fmt.Sprintf("run %d rank %d: replayed sequence differs from the raw one", i, rank))
			}
		}
		last = res
	}

	p1, err := predict(last, 1)
	if err != nil {
		return want, nil, err
	}
	pN, err := predict(last, nproc)
	if err != nil {
		return want, nil, err
	}
	if p1.TotalNS != pN.TotalNS {
		bad = append(bad, fmt.Sprintf("predicted %v ns with 1 worker, %v with %d", p1.TotalNS, pN.TotalNS, nproc))
	}
	want.predictedNS = p1.TotalNS
	mat, err := commMatrix(last, 1)
	if err != nil {
		return want, nil, err
	}
	for rank, row := range mat {
		var sum int64
		for _, v := range row {
			sum += v
		}
		if raw := fx.runs[len(fx.runs)-1].sendBytes[rank]; sum != raw {
			bad = append(bad, fmt.Sprintf("rank %d: comm matrix row sums to %d bytes, raw sends to %d", rank, sum, raw))
		}
	}
	return want, bad, nil
}
