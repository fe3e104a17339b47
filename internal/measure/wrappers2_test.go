package measure

import (
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/trace"
)

func TestMeasuredSendrecv(t *testing.T) {
	tr, _ := runJob(t, 2, 1, core.ModeStmt, 1, noise.Params{}, func(r *Rank) {
		other := 1 - r.Rank()
		msg := r.Sendrecv(other, 1, []float64{float64(r.Rank())}, 8, other, 1)
		if msg.Data[0] != float64(other) {
			t.Errorf("sendrecv got %v", msg.Data)
		}
	})
	// Each rank has exactly one send and one recv event, inside the
	// MPI_Sendrecv region, and the clock condition holds.
	for _, l := range tr.Locs {
		var sends, recvs int
		for _, e := range l.Events {
			switch e.Kind {
			case trace.EvSend:
				sends++
			case trace.EvRecv:
				recvs++
			}
		}
		if sends != 1 || recvs != 1 {
			t.Fatalf("rank %d: %d sends, %d recvs", l.Rank, sends, recvs)
		}
	}
}

func TestPiggybackAblationBreaksClockCondition(t *testing.T) {
	// With synchronisation disabled, a late sender's stamp exceeds the
	// receiver's recv stamp: the Lamport condition fails.  This is the
	// ablation justifying Algorithm 1 step 2.
	app := func(r *Rank) {
		if r.Rank() == 0 {
			// Plenty of counted work before sending.
			r.Region("busy", func() {
				r.Work(workCostBig())
			})
			r.Send(1, 0, []float64{1}, 8)
		} else {
			m := r.Recv(0, 0)
			_ = m
		}
	}
	run := func(disable bool) (sendTS, recvTS uint64) {
		cfg := DefaultConfig(core.ModeStmt)
		cfg.DisablePiggyback = disable
		tr := runJobCfg(t, 2, cfg, app)
		for _, l := range tr.Locs {
			for _, e := range l.Events {
				switch e.Kind {
				case trace.EvSend:
					sendTS = e.Time
				case trace.EvRecv:
					recvTS = e.Time
				}
			}
		}
		return
	}
	s, r := run(true)
	if s < r {
		t.Fatalf("ablation ineffective: send %d < recv %d", s, r)
	}
	s, r = run(false)
	if s >= r {
		t.Fatalf("piggyback failed to restore the clock condition: send %d >= recv %d", s, r)
	}
}
