package vclock

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/simmpi"
	"repro/internal/simomp"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/work"
)

// handTrace builds a two-location trace with one message.
func handTrace() *trace.Trace {
	tr := trace.New("lt_1")
	main := tr.Region("main", trace.RoleUser)
	send := tr.Region("MPI_Send", trace.RoleMPIP2P)
	recv := tr.Region("MPI_Recv", trace.RoleMPIP2P)
	l0 := tr.AddLocation(0, 0)
	l1 := tr.AddLocation(1, 0)
	tr.Record(l0, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Record(l0, trace.Event{Kind: trace.EvEnter, Time: 2, Region: send})
	tr.Record(l0, trace.Event{Kind: trace.EvSend, Time: 3, A: 1, B: 0, C: 8})
	tr.Record(l0, trace.Event{Kind: trace.EvExit, Time: 4, Region: send})
	tr.Record(l0, trace.Event{Kind: trace.EvExit, Time: 5, Region: main})
	tr.Record(l1, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Record(l1, trace.Event{Kind: trace.EvEnter, Time: 2, Region: recv})
	tr.Record(l1, trace.Event{Kind: trace.EvRecv, Time: 4, A: 0, B: 0, C: 8})
	tr.Record(l1, trace.Event{Kind: trace.EvExit, Time: 5, Region: recv})
	tr.Record(l1, trace.Event{Kind: trace.EvExit, Time: 6, Region: main})
	return tr
}

func TestHappensBeforeAcrossMessage(t *testing.T) {
	c, err := Compute(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	sendEv := EventRef{0, 2}
	recvEv := EventRef{1, 2}
	if !c.HappensBefore(sendEv, recvEv) {
		t.Fatal("send must happen before matching recv")
	}
	if c.HappensBefore(recvEv, sendEv) {
		t.Fatal("recv must not precede send")
	}
	// Events before the message on different locations are concurrent.
	a := EventRef{0, 0}
	b := EventRef{1, 0}
	if !c.Concurrent(a, b) {
		t.Fatal("pre-message events should be concurrent")
	}
	// Program order holds.
	if !c.HappensBefore(EventRef{0, 0}, EventRef{0, 4}) {
		t.Fatal("program order lost")
	}
}

func TestVectorComponentsMonotone(t *testing.T) {
	c, err := Compute(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	for li := range c.vecs {
		for ei := 1; ei < len(c.vecs[li]); ei++ {
			prev, cur := c.vecs[li][ei-1], c.vecs[li][ei]
			for i := range prev {
				if cur[i] < prev[i] {
					t.Fatalf("loc %d event %d: vector went backwards", li, ei)
				}
			}
			if cur[li] != prev[li]+1 {
				t.Fatalf("loc %d: own component must advance by one", li)
			}
		}
	}
}

func TestValidateCleanTrace(t *testing.T) {
	v, err := Validate(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("clean trace reported %d violations", len(v))
	}
}

func TestValidateCatchesClockConditionBreach(t *testing.T) {
	tr := handTrace()
	// Corrupt the recv stamp to precede the send stamp.
	tr.Locs[1].Events[2].Time = 2
	tr.Locs[1].Events[3].Time = 2 // keep per-location order sane
	v, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("violation not detected")
	}
	if v[0].FromTS != 3 || v[0].ToTS != 2 {
		t.Fatalf("unexpected violation: %+v", v[0])
	}
}

func TestUnmatchedReceiveRejected(t *testing.T) {
	tr := trace.New("lt_1")
	main := tr.Region("main", trace.RoleUser)
	l0 := tr.AddLocation(0, 0)
	tr.Record(l0, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Record(l0, trace.Event{Kind: trace.EvRecv, Time: 2, A: 5, B: 0, C: 8})
	tr.Record(l0, trace.Event{Kind: trace.EvExit, Time: 3, Region: main})
	if _, err := Compute(tr); err == nil {
		t.Fatal("expected error for unmatched receive")
	}
}

// measuredTrace runs a hybrid job through the real pipeline.
func measuredTrace(t *testing.T, mode core.Mode, np noise.Params) *trace.Trace {
	t.Helper()
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1))
	place, err := machine.PlaceBlock(m, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nm *noise.Model
	if np != (noise.Params{}) {
		nm = noise.NewModel(5, np)
	}
	w := simmpi.NewWorld(k, m, place, simmpi.DefaultConfig(), simomp.DefaultCosts(), nm)
	meas := measure.New(measure.DefaultConfig(mode))
	w.Launch(func(p *simmpi.Proc) {
		r := measure.NewRank(meas, p)
		r.Begin()
		other := p.Rank ^ 1
		reqs := []*simmpi.Request{r.Irecv(other, 0)}
		r.Isend(other, 0, []float64{1}, 8)
		r.Waitall(reqs)
		r.ParallelFor("loop", 64, func(lo, hi int, th *measure.Thread) {
			th.Work(work.PerIter(work.Cost{Instr: 1e5, Flops: 1e5, Bytes: 1e4, Calls: 2}, float64(hi-lo)))
		})
		r.Allreduce([]float64{1}, simmpi.OpSum)
		r.End()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return meas.Trace
}

func TestLogicalTraceSatisfiesClockCondition(t *testing.T) {
	for _, mode := range core.LogicalModes() {
		tr := measuredTrace(t, mode, noise.Cluster())
		v, err := Validate(tr)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(v) != 0 {
			t.Fatalf("%s: %d clock-condition violations in a logical trace (first: %+v)",
				mode, len(v), v[0])
		}
	}
}

func TestComputeWorksOnMeasuredTrace(t *testing.T) {
	tr := measuredTrace(t, core.ModeLt1, noise.Params{})
	c, err := Compute(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check: every location's last event vector dominates its first.
	for li := range tr.Locs {
		n := len(tr.Locs[li].Events)
		if n < 2 {
			continue
		}
		if !c.HappensBefore(EventRef{li, 0}, EventRef{li, n - 1}) {
			t.Fatalf("loc %d: first event does not precede last", li)
		}
	}
}

func TestTscWithSkewedClocksViolatesCondition(t *testing.T) {
	// Large clock offsets between ranks make physical stamps non-causal:
	// a message can appear to arrive before it was sent.  This is the
	// paper's first argument for logical clocks (§II).
	np := noise.Params{ClockOffsetMax: 5e-3}
	tr := measuredTrace(t, core.ModeTSC, np)
	v, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("expected clock-condition violations with 5 ms clock offsets")
	}
}
