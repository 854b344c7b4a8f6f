package bench

// One observed pipeline pass: the 64-rank wraparound ring driven through
// every stage (compress, merge, codec, blockio enc/dec, corpus, replay, sim)
// under whatever metrics sink and flight recorder are attached. It backs
// `cypressbench -exp none -stats/-trace`; its tests pin the counters it
// lights and the timeline it records.

import (
	"bytes"
	"fmt"
	"os"

	cypress "repro"
	"repro/internal/blockio"
	"repro/internal/corpus"
	"repro/internal/cst"
	"repro/internal/ctt"
	"repro/internal/merge"
	"repro/internal/timestat"
	"repro/internal/trace"
)

// Worker counts of the pipeline's parallel stages. Small fixed values rather
// than GOMAXPROCS so the captured swimlane set is stable across machines (the
// fixture-capture test asserts per-worker lanes exist).
const (
	pipeEncWorkers = 4
	pipeDecWorkers = 2
	pipeFrameSize  = 1 << 12 // small frames so several flow through every worker
)

// Pipeline runs one pass over every stage with whatever obs.Attach
// attached: compress and merge the 64-rank ring, round-trip it through the
// blocked container on parallel frame workers, ingest it and a
// timing-shifted rerun into a fresh corpus (full, then delta) and get the
// latter twice (miss, then hit), then replay the round-tripped trace into
// the LogGP simulator.
func Pipeline() error {
	ctts, err := ringCTTs(64, 24, 0)
	if err != nil {
		return err
	}
	m, err := merge.All(ctts, 0)
	if err != nil {
		return err
	}
	var blocked bytes.Buffer
	if _, err := m.EncodeBlockedFrames(&blocked, pipeEncWorkers, pipeFrameSize); err != nil {
		return err
	}
	res, err := cypress.OpenTrace(blocked.Bytes(), pipeDecWorkers)
	if err != nil {
		return err
	}
	// The merged ring compresses to under one frame, so the round-trip above
	// lights up one worker lane. Soak the container with enough incompressible
	// frames that every deflate and inflate worker records traffic.
	if err := containerSoak(); err != nil {
		return err
	}
	if err := pipelineCorpus(m); err != nil {
		return err
	}
	_, err = res.PredictPar(0)
	return err
}

// containerSoak round-trips a deterministic pseudo-random payload through a
// blocked container: 32 frames of LCG noise resist deflate enough that the
// worker pools stay busy and every enc/dec lane shows up in the capture.
func containerSoak() error {
	const frames = 32
	payload := make([]byte, frames*pipeFrameSize)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range payload {
		x = x*6364136223846793005 + 1442695040888963407
		payload[i] = byte(x >> 56)
	}
	var buf bytes.Buffer
	w, err := blockio.NewWriter(&buf, blockio.WriterOptions{FrameSize: pipeFrameSize, Workers: pipeEncWorkers})
	if err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	got, _, err := blockio.Unwrap(buf.Bytes(), pipeDecWorkers)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("bench: container soak round-trip mismatch")
	}
	return nil
}

// pipelineCorpus ingests m and a rerun of the ring with every duration
// shifted by 3ns (same structure, so it stores as a delta) into a fresh
// corpus, then gets the rerun twice: a cache miss, then a hit.
func pipelineCorpus(m *merge.Merged) error {
	dir, err := os.MkdirTemp("", "cypress-corpus-pipeline-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	if _, err := st.Ingest(m); err != nil {
		return err
	}
	ctts, err := ringCTTs(64, 24, 3)
	if err != nil {
		return err
	}
	rerun, err := merge.All(ctts, 0)
	if err != nil {
		return err
	}
	h, err := st.Ingest(rerun)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		tr, err := st.Get(h)
		if err != nil {
			return err
		}
		tr.Release()
	}
	return nil
}

// ringSrc is the program shape behind ringCTTs: a stencil whose peers are
// rank-relative constants plus one collective.
const ringSrc = `
func main() {
	for var k = 0; k < 24; k = k + 1 {
		send(rank + 1, 4096, 7);
		recv(rank + size - 1, 4096, 7);
	}
	allreduce(8);
}`

// ringCTTs builds n per-rank CTTs for a wraparound ring by driving each
// compressor directly over ringSrc's tree, every duration shifted by offNS.
// Peers are taken modulo n, so every recv has a matching send and the merged
// trace is simulatable under simmpi; the wraparound edges split the ranks
// into three rank groups (interior, rank 0, rank n-1) that differ in peer
// only, so one replay class. Distinct offsets model reruns of one workload
// on slightly different machines: identical structure, shifted timing.
func ringCTTs(n, iters int, offNS int64) ([]*ctt.RankCTT, error) {
	p, err := cypress.Compile(ringSrc)
	if err != nil {
		return nil, err
	}
	tree := p.CST
	var loop, sendLeaf, recvLeaf, redLeaf *cst.Vertex
	tree.Walk(func(v *cst.Vertex, _ int) {
		switch {
		case loop == nil && v.Kind == cst.KindLoop:
			loop = v
		case sendLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpSend:
			sendLeaf = v
		case recvLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpRecv:
			recvLeaf = v
		case redLeaf == nil && v.Kind == cst.KindComm && v.Op == trace.OpAllreduce:
			redLeaf = v
		}
	})
	if loop == nil || sendLeaf == nil || recvLeaf == nil || redLeaf == nil {
		return nil, fmt.Errorf("bench: ring tree missing vertices")
	}
	off := float64(offNS)
	out := make([]*ctt.RankCTT, n)
	var ev trace.Event
	for r := 0; r < n; r++ {
		c := ctt.NewCompressor(tree, r, timestat.ModeMeanStddev)
		ev = trace.Event{Op: trace.OpInit, Peer: trace.NoPeer, ReqID: -1, DurationNS: 120 + off, ComputeNS: 10}
		c.Event(&ev)
		c.LoopEnter(int32(loop.Site))
		for k := 0; k < iters; k++ {
			c.LoopIter(int32(loop.Site))
			c.CommSite(int32(sendLeaf.Site))
			ev = trace.Event{Op: trace.OpSend, Peer: (r + 1) % n, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1500 + off, ComputeNS: 40}
			c.Event(&ev)
			c.CommSite(int32(recvLeaf.Site))
			ev = trace.Event{Op: trace.OpRecv, Peer: (r + n - 1) % n, Size: 4096, Tag: 7, ReqID: -1, DurationNS: 1600 + off, ComputeNS: 55}
			c.Event(&ev)
		}
		c.StructExit()
		c.CommSite(int32(redLeaf.Site))
		ev = trace.Event{Op: trace.OpAllreduce, Peer: trace.NoPeer, Size: 8, ReqID: -1, DurationNS: 2200 + off, ComputeNS: 70}
		c.Event(&ev)
		ev = trace.Event{Op: trace.OpFinalize, Peer: trace.NoPeer, ReqID: -1, DurationNS: 90 + off}
		c.Event(&ev)
		c.Finalize()
		out[r] = c.Finish()
	}
	return out, nil
}
