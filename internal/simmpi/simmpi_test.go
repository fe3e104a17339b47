package simmpi

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/simomp"
	"repro/internal/vtime"
)

// job runs main on `ranks` ranks with one thread each and returns the
// kernel after completion.
func job(t *testing.T, ranks int, main func(p *Proc)) *vtime.Kernel {
	t.Helper()
	k, w := buildJob(t, ranks, main)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	_ = w
	return k
}

func buildJob(t *testing.T, ranks int, main func(p *Proc)) (*vtime.Kernel, *World) {
	t.Helper()
	nodes := (ranks*1 + 127) / 128
	if nodes < 1 {
		nodes = 1
	}
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(nodes))
	place, err := machine.PlaceBlock(m, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(k, m, place, DefaultConfig(), simomp.DefaultCosts(), nil)
	w.Launch(main)
	return k, w
}

func TestEagerSendRecvDeliversData(t *testing.T) {
	payload := []float64{1, 2, 3.5}
	job(t, 2, func(p *Proc) {
		switch p.Rank {
		case 0:
			p.Send(1, 7, payload, 24, 42)
		case 1:
			m := p.Recv(0, 7)
			if m.Src != 0 || m.Tag != 7 || m.Piggyback != 42 {
				t.Errorf("message envelope wrong: %+v", m)
			}
			if len(m.Data) != 3 || m.Data[2] != 3.5 {
				t.Errorf("payload wrong: %v", m.Data)
			}
		}
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	job(t, 2, func(p *Proc) {
		if p.Rank == 0 {
			buf := []float64{1}
			p.Send(1, 0, buf, 8, 0)
			buf[0] = 99 // mutation after send must not be visible
		} else {
			m := p.Recv(0, 0)
			if m.Data[0] != 1 {
				t.Errorf("received mutated buffer: %v", m.Data)
			}
		}
	})
}

func TestLateSenderMakesReceiverWait(t *testing.T) {
	var recvEnter, recvExit, sendEnter float64
	job(t, 2, func(p *Proc) {
		if p.Rank == 0 {
			p.Loc.Actor.Compute(10e-3) // sender is late
			sendEnter = p.Loc.Now()
			p.Send(1, 0, nil, 8, 0)
		} else {
			recvEnter = p.Loc.Now()
			p.Recv(0, 0)
			recvExit = p.Loc.Now()
		}
	})
	if recvEnter > 1e-6 {
		t.Fatalf("receiver should enter immediately, entered at %g", recvEnter)
	}
	if recvExit < sendEnter {
		t.Fatalf("receiver exit %g before send enter %g", recvExit, sendEnter)
	}
	if recvExit < 10e-3 {
		t.Fatalf("receiver did not wait for the late sender: exit %g", recvExit)
	}
}

func TestRendezvousBlocksSenderUntilReceiverArrives(t *testing.T) {
	// Message above the eager threshold: the sender must wait for the
	// late receiver (the paper's late-receiver pattern).
	var sendExit float64
	job(t, 2, func(p *Proc) {
		bytes := DefaultConfig().EagerThreshold * 4
		data := make([]float64, bytes/8)
		if p.Rank == 0 {
			p.Send(1, 0, data, bytes, 0)
			sendExit = p.Loc.Now()
		} else {
			p.Loc.Actor.Compute(20e-3) // receiver is late
			p.Recv(0, 0)
		}
	})
	if sendExit < 20e-3 {
		t.Fatalf("rendezvous send returned at %g, before receiver arrived at 20ms", sendExit)
	}
}

func TestEagerSendReturnsEarly(t *testing.T) {
	var sendExit float64
	job(t, 2, func(p *Proc) {
		if p.Rank == 0 {
			p.Send(1, 0, []float64{1}, 8, 0)
			sendExit = p.Loc.Now()
		} else {
			p.Loc.Actor.Compute(50e-3) // receiver very late
			p.Recv(0, 0)
		}
	})
	if sendExit > 1e-3 {
		t.Fatalf("eager send blocked until %g, should return almost immediately", sendExit)
	}
}

func TestMessageOrderingBetweenPairs(t *testing.T) {
	// Two same-tag messages between the same pair must match in order.
	job(t, 2, func(p *Proc) {
		if p.Rank == 0 {
			p.Send(1, 0, []float64{1}, 8, 0)
			p.Send(1, 0, []float64{2}, 8, 0)
		} else {
			a := p.Recv(0, 0)
			b := p.Recv(0, 0)
			if a.Data[0] != 1 || b.Data[0] != 2 {
				t.Errorf("messages out of order: %v then %v", a.Data, b.Data)
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	job(t, 2, func(p *Proc) {
		if p.Rank == 0 {
			p.Send(1, 5, []float64{5}, 8, 0)
			p.Send(1, 9, []float64{9}, 8, 0)
		} else {
			m9 := p.Recv(0, 9)
			m5 := p.Recv(0, 5)
			if m9.Data[0] != 9 || m5.Data[0] != 5 {
				t.Errorf("tag matching wrong: %v %v", m9.Data, m5.Data)
			}
		}
	})
}

func TestWildcardReceive(t *testing.T) {
	job(t, 3, func(p *Proc) {
		switch p.Rank {
		case 0, 1:
			p.Send(2, p.Rank, []float64{float64(p.Rank)}, 8, 0)
		case 2:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				m := p.Recv(AnySource, AnyTag)
				seen[m.Src] = true
			}
			if !seen[0] || !seen[1] {
				t.Errorf("wildcard receive missed a source: %v", seen)
			}
		}
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	const n = 4
	job(t, n, func(p *Proc) {
		// Ring halo exchange with nonblocking ops.
		left := (p.Rank + n - 1) % n
		right := (p.Rank + 1) % n
		rreqs := []*Request{p.Irecv(left, 1), p.Irecv(right, 2)}
		p.Isend(right, 1, []float64{float64(p.Rank)}, 8, 0)
		p.Isend(left, 2, []float64{float64(p.Rank)}, 8, 0)
		p.Waitall(rreqs)
		if got := rreqs[0].Msg().Data[0]; got != float64(left) {
			t.Errorf("rank %d: from left got %g want %d", p.Rank, got, left)
		}
		if got := rreqs[1].Msg().Data[0]; got != float64(right) {
			t.Errorf("rank %d: from right got %g want %d", p.Rank, got, right)
		}
	})
}

func TestSendrecvRing(t *testing.T) {
	const n = 4
	job(t, n, func(p *Proc) {
		right := (p.Rank + 1) % n
		left := (p.Rank + n - 1) % n
		msg, err := p.Sendrecv(right, 1, []float64{float64(p.Rank)}, 8, left, 1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if msg.Data[0] != float64(left) {
			t.Errorf("rank %d received %v, want %d", p.Rank, msg.Data, left)
		}
	})
}

func TestAllreduceSumMaxMin(t *testing.T) {
	const n = 8
	job(t, n, func(p *Proc) {
		v := float64(p.Rank + 1)
		comm := p.W.CommWorld()
		sum, _ := comm.Allreduce(p, []float64{v, -v}, OpSum, 0)
		if sum[0] != 36 || sum[1] != -36 {
			t.Errorf("sum = %v, want [36 -36]", sum)
		}
		mx, _ := comm.Allreduce(p, []float64{v}, OpMax, 0)
		if mx[0] != 8 {
			t.Errorf("max = %v, want 8", mx)
		}
		mn, _ := comm.Allreduce(p, []float64{v}, OpMin, 0)
		if mn[0] != 1 {
			t.Errorf("min = %v, want 1", mn)
		}
	})
}

func TestAllreduceSynchronises(t *testing.T) {
	const n = 4
	exits := make([]float64, n)
	job(t, n, func(p *Proc) {
		p.Loc.Actor.Compute(float64(p.Rank) * 5e-3) // staggered arrival
		_, _ = p.W.CommWorld().Allreduce(p, []float64{1}, OpSum, 0)
		exits[p.Rank] = p.Loc.Now()
	})
	for r := 1; r < n; r++ {
		if math.Abs(exits[r]-exits[0]) > 1e-9 {
			t.Fatalf("rank %d exits at %g, rank 0 at %g", r, exits[r], exits[0])
		}
	}
	if exits[0] < 15e-3 {
		t.Fatalf("release %g before the last arrival at 15ms", exits[0])
	}
}

func TestBarrierPiggybackMax(t *testing.T) {
	const n = 5
	job(t, n, func(p *Proc) {
		got := p.W.CommWorld().Barrier(p, uint64(100+p.Rank))
		if got != 104 {
			t.Errorf("rank %d: piggyback max = %d, want 104", p.Rank, got)
		}
	})
}

func TestAllgather(t *testing.T) {
	const n = 4
	job(t, n, func(p *Proc) {
		out, _ := p.W.CommWorld().Allgather(p, []float64{float64(p.Rank * 10)}, 0)
		for i := 0; i < n; i++ {
			if out[i][0] != float64(i*10) {
				t.Errorf("rank %d: gathered[%d] = %v", p.Rank, i, out[i])
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	const n = 3
	job(t, n, func(p *Proc) {
		send := make([][]float64, n)
		for j := 0; j < n; j++ {
			send[j] = []float64{float64(100*p.Rank + j)}
		}
		out, _ := p.W.CommWorld().Alltoall(p, send, 0)
		for i := 0; i < n; i++ {
			want := float64(100*i + p.Rank)
			if out[i][0] != want {
				t.Errorf("rank %d: from %d got %v want %g", p.Rank, i, out[i], want)
			}
		}
	})
}

func TestManyCollectivesInSequence(t *testing.T) {
	job(t, 4, func(p *Proc) {
		comm := p.W.CommWorld()
		total := 0.0
		for i := 0; i < 50; i++ {
			s, _ := comm.Allreduce(p, []float64{1}, OpSum, 0)
			total += s[0]
		}
		if total != 200 {
			t.Errorf("rank %d: total = %g, want 200", p.Rank, total)
		}
	})
}

func TestCollectiveMismatchPanics(t *testing.T) {
	k, _ := buildJob(t, 2, func(p *Proc) {
		comm := p.W.CommWorld()
		if p.Rank == 0 {
			comm.Barrier(p, 0)
		} else {
			comm.Allreduce(p, []float64{1}, OpSum, 0)
		}
	})
	if err := k.Run(); err == nil {
		t.Fatal("expected mismatch panic surfaced as error")
	}
}

func TestDeterministicTimings(t *testing.T) {
	run := func() []float64 {
		exits := make([]float64, 8)
		job(t, 8, func(p *Proc) {
			comm := p.W.CommWorld()
			for i := 0; i < 5; i++ {
				p.Loc.Actor.Compute(float64((p.Rank*7+i)%3) * 1e-3)
				comm.Allreduce(p, []float64{1}, OpSum, 0)
				if p.Rank > 0 {
					p.Send((p.Rank+1)%8, 0, []float64{1}, 8, 0)
				}
				if p.Rank != 1 {
					p.Recv(AnySource, 0)
				}
			}
			exits[p.Rank] = p.Loc.Now()
		})
		return exits
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHybridMPIOpenMP(t *testing.T) {
	// 2 ranks x 4 threads: parallel compute then allreduce on masters.
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1))
	place, err := machine.PlaceBlock(m, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(k, m, place, DefaultConfig(), simomp.DefaultCosts(), nil)
	sums := make([]float64, 2)
	w.Launch(func(p *Proc) {
		partial := make([]float64, 4)
		p.Team.ParallelFor(400, func(lo, hi int, th *simomp.Thread) {
			for i := lo; i < hi; i++ {
				partial[th.ID]++
			}
		})
		local := 0.0
		for _, v := range partial {
			local += v
		}
		out, _ := p.W.CommWorld().Allreduce(p, []float64{local}, OpSum, 0)
		sums[p.Rank] = out[0]
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sums[0] != 800 || sums[1] != 800 {
		t.Fatalf("hybrid sums = %v, want 800 each", sums)
	}
}
