package bench

// Flight-recorder capture of the observed pipeline: the same 64-rank
// wraparound-ring pass that backs the -benchjson obs report, but with a
// trace recorder wired into every stage so the result is a Perfetto-loadable
// timeline exercising every category (compress, merge, codec, blockio
// enc/dec, corpus, replay, sim) with real worker swimlanes for the parallel
// stages. Shared by `cypressbench -trace` and the fixture-capture CI test.

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/blockio"
	"repro/internal/corpus"
	"repro/internal/ctt"
	"repro/internal/merge"
	"repro/internal/mpisim"
	ftrace "repro/internal/obs/trace"
	"repro/internal/simmpi"
)

// EnableTrace attaches r to every pipeline stage the bench harness
// exercises, mirroring EnableObs. Pass nil to detach.
func EnableTrace(r *ftrace.Recorder) {
	ctt.SetTrace(r)
	merge.SetTrace(r)
	simmpi.SetTrace(r)
	blockio.SetTrace(r)
	corpus.SetTrace(r)
}

// Worker counts of the traced pipeline's parallel stages. Small fixed values
// rather than GOMAXPROCS so the captured swimlane set is stable across
// machines (the CI fixture asserts per-worker lanes exist).
const (
	captureEncWorkers = 4
	captureDecWorkers = 2
	captureFrameSize  = 1 << 12 // small frames so several flow through every worker
)

// TracedPipeline runs one full pipeline pass — compress, merge, blocked
// container encode/decode (parallel frame workers), corpus ingest/get,
// streaming replay, LogGP simulation — with r recording, and
// detaches the recorder before returning. The pass mirrors observePipeline;
// it is deliberately its traced twin so the timeline corresponds to the
// counters the obs report shows.
func TracedPipeline(r *ftrace.Recorder) error {
	EnableTrace(r)
	defer EnableTrace(nil)
	ctts, err := ringCTTs(64, 24)
	if err != nil {
		return err
	}
	m, err := merge.All(ctts, 0)
	if err != nil {
		return err
	}
	// Blocked container round-trip: deflate lanes on encode, inflate lanes
	// on decode.
	var blocked bytes.Buffer
	if _, err := m.EncodeBlockedFrames(&blocked, captureEncWorkers, captureFrameSize); err != nil {
		return err
	}
	if _, err := merge.DecodeSelectAuto(blocked.Bytes(), merge.SelectAll(), captureDecWorkers); err != nil {
		return err
	}
	// The merged fixture trace compresses to under one frame, so the real
	// round-trip above exercises the container code path but lights up only
	// one worker swimlane. Soak the container with enough incompressible
	// frames that every deflate and inflate worker records traffic.
	if err := containerSoak(); err != nil {
		return err
	}
	// Corpus pass: two structurally-identical runs (full then delta ingest),
	// then a cold and a warm Get.
	if err := tracedCorpus(); err != nil {
		return err
	}
	// Replay skeletons + the LogGP simulation sweeps.
	_, err = predictStream(merge.NewStreamer(m), mpisim.DefaultParams())
	return err
}

// containerSoak round-trips a deterministic pseudo-random payload through a
// blocked container: 32 frames of LCG noise resist deflate enough that the
// worker pools stay busy and every enc/dec lane shows up in the capture.
func containerSoak() error {
	const frames = 32
	payload := make([]byte, frames*captureFrameSize)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range payload {
		x = x*6364136223846793005 + 1442695040888963407
		payload[i] = byte(x >> 56)
	}
	var buf bytes.Buffer
	w, err := blockio.NewWriter(&buf, blockio.WriterOptions{FrameSize: captureFrameSize, Workers: captureEncWorkers})
	if err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	got, _, err := blockio.Unwrap(buf.Bytes(), captureDecWorkers)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("bench: container soak round-trip mismatch")
	}
	return nil
}

// tracedCorpus is observeCorpus's traced twin: two offset runs of the ring
// (the second ingests as a delta), then a miss Get and a hit Get.
func tracedCorpus() error {
	dir, err := os.MkdirTemp("", "cypress-corpus-trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	var last uint64
	for run := 0; run < 2; run++ {
		ctts, err := ringCTTsOff(64, 24, int64(3*run))
		if err != nil {
			return err
		}
		m, err := merge.All(ctts, 0)
		if err != nil {
			return err
		}
		if last, err = st.Ingest(m); err != nil {
			return err
		}
	}
	for i := 0; i < 2; i++ { // miss, then hit
		tr, err := st.Get(last)
		if err != nil {
			return err
		}
		tr.Release()
	}
	return nil
}
