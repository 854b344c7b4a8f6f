package mpisim

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// runCollect runs body on n ranks and returns per-rank event lists.
func runCollect(t *testing.T, n int, body func(r *Rank)) ([][]trace.Event, float64) {
	t.Helper()
	sinks := make([]trace.Sink, n)
	cols := make([]*trace.CollectorSink, n)
	for i := range sinks {
		cols[i] = &trace.CollectorSink{}
		sinks[i] = cols[i]
	}
	tot, err := Run(n, DefaultParams(), sinks, body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := make([][]trace.Event, n)
	for i, c := range cols {
		out[i] = c.Events
	}
	return out, tot
}

func TestSendRecvPair(t *testing.T) {
	evs, tot := runCollect(t, 2, func(r *Rank) {
		r.Init()
		if r.ID() == 0 {
			r.Send(1, 1024, 7)
		} else {
			src := r.Recv(0, 1024, 7)
			if src != 0 {
				t.Errorf("matched src = %d", src)
			}
		}
		r.Finalize()
	})
	if tot <= 0 {
		t.Fatal("job time must be positive")
	}
	if evs[0][1].Op != trace.OpSend || evs[0][1].Peer != 1 || evs[0][1].Size != 1024 || evs[0][1].Tag != 7 {
		t.Fatalf("send event = %+v", evs[0][1])
	}
	recv := evs[1][1]
	if recv.Op != trace.OpRecv || recv.Peer != 0 || recv.Wildcard {
		t.Fatalf("recv event = %+v", recv)
	}
	if recv.DurationNS <= 0 {
		t.Fatal("recv duration must be positive")
	}
}

func TestTagMatchingOrder(t *testing.T) {
	// Two messages with different tags: the receiver asks for tag 2 first,
	// so matching must be by tag, not arrival order.
	evs, _ := runCollect(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 10, 1)
			r.Send(1, 20, 2)
		} else {
			r.Recv(0, 20, 2)
			r.Recv(0, 10, 1)
		}
	})
	if evs[1][0].Size != 20 || evs[1][1].Size != 10 {
		t.Fatalf("tag matching broken: %+v", evs[1])
	}
}

func TestFIFOPerTag(t *testing.T) {
	// Same (src, tag): arrival order must be preserved.
	runCollect(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, 100+i, 0)
			}
		} else {
			for i := 0; i < 5; i++ {
				r.Recv(0, 100+i, 0) // panics on size mismatch if order broken
			}
		}
	})
}

func TestWildcardRecv(t *testing.T) {
	// Rank 2 computes less, so its message is available first: a wildcard
	// takes the earliest-available message, whichever goroutine ran first.
	evs, _ := runCollect(t, 3, func(r *Rank) {
		if r.ID() != 0 {
			r.Compute(float64(3-r.ID()) * 1e6)
			r.Send(0, 64, 0)
		} else {
			s1 := r.Recv(trace.AnySource, 64, 0)
			s2 := r.Recv(trace.AnySource, 64, 0)
			if s1 != 2 || s2 != 1 {
				t.Errorf("wildcard matched %d then %d, want 2 then 1", s1, s2)
			}
		}
	})
	for _, e := range evs[0] {
		if e.Op == trace.OpRecv && !e.Wildcard {
			t.Fatal("wildcard flag missing")
		}
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	evs, _ := runCollect(t, 2, func(r *Rank) {
		peer := 1 - r.ID()
		r.Isend(peer, 256, 3)
		r.Irecv(peer, 256, 3)
		r.Waitall()
		if r.PendingCount() != 0 {
			t.Errorf("pending after waitall: %d", r.PendingCount())
		}
	})
	for rank, es := range evs {
		if len(es) != 3 {
			t.Fatalf("rank %d events = %d", rank, len(es))
		}
		wa := es[2]
		if wa.Op != trace.OpWaitall || len(wa.Reqs) != 2 {
			t.Fatalf("waitall = %+v", wa)
		}
		// Posted order: isend req 0, irecv req 1.
		if wa.Reqs[0] != 0 || wa.Reqs[1] != 1 {
			t.Fatalf("completion order = %v", wa.Reqs)
		}
		// ReqSrcs: -1 for the send, peer for the receive.
		if len(wa.ReqSrcs) != 2 || wa.ReqSrcs[0] != -1 || int(wa.ReqSrcs[1]) != 1-rank {
			t.Fatalf("req srcs = %v", wa.ReqSrcs)
		}
	}
}

func TestWaitSingle(t *testing.T) {
	evs, _ := runCollect(t, 2, func(r *Rank) {
		peer := 1 - r.ID()
		req := r.Irecv(peer, 8, 0)
		r.Send(peer, 8, 0)
		r.Wait(req)
	})
	w := evs[0][2]
	if w.Op != trace.OpWait || len(w.Reqs) != 1 || w.Reqs[0] != 0 {
		t.Fatalf("wait event = %+v", w)
	}
}

func TestWaitsomeAndTestany(t *testing.T) {
	runCollect(t, 2, func(r *Rank) {
		peer := 1 - r.ID()
		r.Irecv(peer, 8, 0)
		r.Irecv(peer, 8, 1)
		r.Send(peer, 8, 0)
		r.Send(peer, 8, 1)
		done := 0
		for done < 2 {
			done += len(r.Waitsome())
		}
		if r.Testany() != nil {
			t.Error("testany on empty pending must return nil")
		}
	})
}

func TestCollectives(t *testing.T) {
	n := 4
	evs, _ := runCollect(t, n, func(r *Rank) {
		r.Barrier()
		r.Bcast(0, 4096)
		r.Reduce(0, 8)
		r.Allreduce(8)
		r.Gather(2, 100)
		r.Scatter(1, 100)
		r.Allgather(64)
		r.Alltoall(32)
	})
	wantOps := []trace.Op{trace.OpBarrier, trace.OpBcast, trace.OpReduce,
		trace.OpAllreduce, trace.OpGather, trace.OpScatter, trace.OpAllgather, trace.OpAlltoall}
	for rank := 0; rank < n; rank++ {
		if len(evs[rank]) != len(wantOps) {
			t.Fatalf("rank %d: %d events", rank, len(evs[rank]))
		}
		for i, op := range wantOps {
			if evs[rank][i].Op != op {
				t.Fatalf("rank %d event %d = %v, want %v", rank, i, evs[rank][i].Op, op)
			}
		}
		if evs[rank][1].Peer != 0 || evs[rank][4].Peer != 2 || evs[rank][5].Peer != 1 {
			t.Fatalf("rank %d roots wrong: %+v", rank, evs[rank])
		}
	}
}

func TestCollectiveMismatchAborts(t *testing.T) {
	_, err := Run(2, DefaultParams(), nil, func(r *Rank) {
		if r.ID() == 0 {
			r.Bcast(0, 8)
		} else {
			r.Reduce(0, 8)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("err = %v", err)
	}
}

// TestDeadlockDetected: when no rank runs and no parked rank can choose, Run
// returns ErrDeadlock at once, with no timer involved.
func TestDeadlockDetected(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(r *Rank)
	}{
		{"both receive", func(r *Rank) { r.Recv(1-r.ID(), 8, 0) }},
		{"barrier against receive", func(r *Rank) {
			if r.ID() == 0 {
				r.Barrier()
			} else {
				r.Recv(0, 8, 0)
			}
		}},
		{"wildcard nobody sends to", func(r *Rank) {
			if r.ID() == 0 {
				r.Recv(trace.AnySource, 8, 0)
			}
		}},
	} {
		if _, err := Run(2, DefaultParams(), nil, tc.body); err != ErrDeadlock {
			t.Errorf("%s: err = %v, want ErrDeadlock", tc.name, err)
		}
	}
}

// TestPartialExitDeadlockDetected: a rank that waits on a peer which has
// already returned is a deadlock too.
func TestPartialExitDeadlockDetected(t *testing.T) {
	_, err := Run(2, DefaultParams(), nil, func(r *Rank) {
		if r.ID() == 0 {
			return // exits immediately
		}
		r.Recv(0, 8, 0)
	})
	if err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestBodyPanicPropagates(t *testing.T) {
	_, err := Run(2, DefaultParams(), nil, func(r *Rank) {
		if r.ID() == 1 {
			panic("boom")
		}
		r.Recv(1, 8, 0) // would block forever without abort
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	_, err := Run(2, DefaultParams(), nil, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 100, 0)
		} else {
			r.Recv(0, 999, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "size mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestPeerRangeValidation(t *testing.T) {
	_, err := Run(1, DefaultParams(), nil, func(r *Rank) {
		r.Send(5, 8, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}
}

func TestFinalizeWithPendingPanics(t *testing.T) {
	_, err := Run(2, DefaultParams(), nil, func(r *Rank) {
		r.Irecv(1-r.ID(), 8, 0)
		r.Send(1-r.ID(), 8, 0)
		r.Finalize() // pending irecv never waited
	})
	if err == nil || !strings.Contains(err.Error(), "incomplete requests") {
		t.Fatalf("err = %v", err)
	}
}

func TestComputeAdvancesClockAndComputeNS(t *testing.T) {
	evs, _ := runCollect(t, 1, func(r *Rank) {
		r.Compute(5000)
		r.Barrier()
		r.Barrier()
	})
	b1, b2 := evs[0][0], evs[0][1]
	if b1.ComputeNS < 4000 || b1.ComputeNS > 6000 {
		t.Fatalf("first barrier ComputeNS = %f", b1.ComputeNS)
	}
	if b2.ComputeNS != 0 {
		t.Fatalf("second barrier ComputeNS = %f, want 0", b2.ComputeNS)
	}
}

func TestCausalTiming(t *testing.T) {
	// The receiver cannot complete before the sender's injection + latency.
	_, tot := runCollect(t, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(1e6) // 1ms before sending
			r.Send(1, 8, 0)
		} else {
			r.Recv(0, 8, 0)
		}
	})
	if tot < 1e6 {
		t.Fatalf("job time %f must include sender compute", tot)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() [][]trace.Event {
		evs, _ := runCollect(t, 4, func(r *Rank) {
			r.Init()
			for i := 0; i < 10; i++ {
				peer := (r.ID() + 1) % r.Size()
				r.Isend(peer, 128, i)
				r.Irecv((r.ID()+r.Size()-1)%r.Size(), 128, i)
				r.Waitall()
				r.Allreduce(8)
			}
			r.Finalize()
		})
		return evs
	}
	a, b := run(), run()
	for rank := range a {
		if len(a[rank]) != len(b[rank]) {
			t.Fatalf("rank %d lengths differ", rank)
		}
		for i := range a[rank] {
			x, y := a[rank][i], b[rank][i]
			if !x.SameParams(&y) || x.DurationNS != y.DurationNS {
				t.Fatalf("rank %d event %d differs: %+v vs %+v", rank, i, x, y)
			}
		}
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	p := DefaultParams()
	for seq := uint64(0); seq < 1000; seq++ {
		f := p.noise(3, seq)
		if f < 1-p.NoiseFrac || f > 1+p.NoiseFrac {
			t.Fatalf("noise %f out of bounds", f)
		}
		if f != p.noise(3, seq) {
			t.Fatal("noise not deterministic")
		}
	}
	z := Params{}
	if z.noise(1, 1) != 1 {
		t.Fatal("zero noise must be exactly 1")
	}
}

func TestManyRanksRing(t *testing.T) {
	n := 64
	evs, _ := runCollect(t, n, func(r *Rank) {
		right := (r.ID() + 1) % n
		left := (r.ID() + n - 1) % n
		for i := 0; i < 5; i++ {
			r.Isend(right, 4096, 0)
			r.Irecv(left, 4096, 0)
			r.Waitall()
		}
		r.Barrier()
	})
	for rank := 0; rank < n; rank++ {
		if len(evs[rank]) != 16 {
			t.Fatalf("rank %d events = %d, want 16", rank, len(evs[rank]))
		}
	}
}

func BenchmarkPingPong(b *testing.B) {
	_, err := Run(2, DefaultParams(), nil, func(r *Rank) {
		peer := 1 - r.ID()
		for i := 0; i < b.N; i++ {
			if r.ID() == 0 {
				r.Send(peer, 64, 0)
				r.Recv(peer, 64, 0)
			} else {
				r.Recv(peer, 64, 0)
				r.Send(peer, 64, 0)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
