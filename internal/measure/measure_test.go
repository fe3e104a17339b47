package measure

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/simmpi"
	"repro/internal/simomp"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/work"
)

// runJob executes app on ranks x threads; returns the trace (nil if mode
// is "" = uninstrumented) and the job's wall time.
func runJob(t *testing.T, ranks, threads int, mode core.Mode, seed int64, np noise.Params, app func(r *Rank)) (*trace.Trace, float64) {
	t.Helper()
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1+(ranks*threads-1)/128))
	place, err := machine.PlaceBlock(m, ranks, threads)
	if err != nil {
		t.Fatal(err)
	}
	var nm *noise.Model
	if np != (noise.Params{}) {
		nm = noise.NewModel(seed, np)
	}
	w := simmpi.NewWorld(k, m, place, simmpi.DefaultConfig(), simomp.DefaultCosts(), nm)
	var meas *Measurement
	if mode != "" {
		meas = New(DefaultConfig(mode))
	}
	w.Launch(func(p *simmpi.Proc) {
		r := NewRank(meas, p)
		r.Begin()
		app(r)
		r.End()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if meas == nil {
		return nil, k.Now()
	}
	return meas.Trace, k.Now()
}

// miniApp is a small hybrid workload exercising every wrapper.
func miniApp(r *Rank) {
	r.Region("setup", func() {
		r.Work(work.Cost{Instr: 1e6, BB: 200, Stmt: 800, Bytes: 1e5, Flops: 1e5})
	})
	r.ParallelFor("stream", 64, func(lo, hi int, th *Thread) {
		th.Work(work.PerIter(work.Cost{Instr: 5e4, BB: 10, Stmt: 30, Flops: 1e4, Bytes: 8e3}, float64(hi-lo)))
	})
	// Neighbour exchange.
	n := r.Size()
	me := r.Rank()
	right, left := (me+1)%n, (me+n-1)%n
	reqs := []*simmpi.Request{r.Irecv(left, 1)}
	r.Isend(right, 1, []float64{float64(me)}, 8)
	r.Waitall(reqs)
	sum := r.Allreduce([]float64{1}, simmpi.OpSum)
	if sum[0] != float64(n) {
		panic("allreduce wrong")
	}
	r.Region("solve", func() {
		r.Work(work.Cost{Instr: 2e6, BB: 500, Stmt: 2000, Bytes: 5e5, Flops: 1e6})
	})
	r.Barrier()
}

func TestUninstrumentedRunsClean(t *testing.T) {
	tr, wall := runJob(t, 4, 2, "", 1, noise.Params{}, miniApp)
	if tr != nil {
		t.Fatal("uninstrumented run produced a trace")
	}
	if wall <= 0 {
		t.Fatal("no time passed")
	}
}

func TestTraceStructure(t *testing.T) {
	tr, _ := runJob(t, 4, 2, core.ModeLt1, 1, noise.Params{}, miniApp)
	if len(tr.Locs) != 8 {
		t.Fatalf("locations = %d, want 8", len(tr.Locs))
	}
	// Every location's Enter/Exit events must balance and timestamps must
	// be non-decreasing (strictly increasing for logical clocks).
	for _, l := range tr.Locs {
		depth := 0
		var prev uint64
		for _, e := range l.Events {
			if e.Time <= prev {
				t.Fatalf("loc r%dt%d: non-increasing logical stamps %d after %d",
					l.Rank, l.Thread, e.Time, prev)
			}
			prev = e.Time
			switch e.Kind {
			case trace.EvEnter:
				depth++
			case trace.EvExit:
				depth--
				if depth < 0 {
					t.Fatalf("loc r%dt%d: unbalanced exit", l.Rank, l.Thread)
				}
			}
		}
		if depth != 0 {
			t.Fatalf("loc r%dt%d: %d unclosed regions", l.Rank, l.Thread, depth)
		}
	}
	// Master locations must have fork/join pairs; workers must have
	// parallel-region enters.
	master := tr.Locs[0]
	forks, joins := 0, 0
	for _, e := range master.Events {
		switch e.Kind {
		case trace.EvFork:
			forks++
		case trace.EvJoin:
			joins++
		}
	}
	if forks != 1 || joins != 1 {
		t.Fatalf("master has %d forks, %d joins; want 1 each", forks, joins)
	}
}

func TestLamportClockConditionAcrossMessages(t *testing.T) {
	tr, _ := runJob(t, 4, 1, core.ModeLt1, 1, noise.Params{}, miniApp)
	// Collect send stamps by (src, dst, tag) FIFO and check each recv
	// stamp exceeds the matching send stamp.
	type key struct{ src, dst, tag int32 }
	sends := map[key][]uint64{}
	for _, l := range tr.Locs {
		if l.Thread != 0 {
			continue
		}
		for _, e := range l.Events {
			if e.Kind == trace.EvSend {
				k := key{int32(l.Rank), e.A, e.B}
				sends[k] = append(sends[k], e.Time)
			}
		}
	}
	for _, l := range tr.Locs {
		if l.Thread != 0 {
			continue
		}
		for _, e := range l.Events {
			if e.Kind == trace.EvRecv {
				k := key{e.A, int32(l.Rank), e.B}
				q := sends[k]
				if len(q) == 0 {
					t.Fatalf("recv without send: %+v", e)
				}
				sendTS := q[0]
				sends[k] = q[1:]
				if e.Time <= sendTS {
					t.Fatalf("clock condition violated: recv %d <= send %d", e.Time, sendTS)
				}
			}
		}
	}
}

func TestLogicalTraceIdenticalUnderNoise(t *testing.T) {
	run := func(seed int64) *trace.Trace {
		tr, _ := runJob(t, 4, 2, core.ModeStmt, seed, noise.Cluster(), miniApp)
		return tr
	}
	a, b := run(1), run(999) // different noise seeds
	if a.NumEvents() != b.NumEvents() {
		t.Fatalf("event counts differ: %d vs %d", a.NumEvents(), b.NumEvents())
	}
	for li := range a.Locs {
		for ei := range a.Locs[li].Events {
			if a.Locs[li].Events[ei] != b.Locs[li].Events[ei] {
				t.Fatalf("logical trace differs under different noise at loc %d ev %d:\n%+v\n%+v",
					li, ei, a.Locs[li].Events[ei], b.Locs[li].Events[ei])
			}
		}
	}
}

func TestTSCTraceVariesUnderNoise(t *testing.T) {
	run := func(seed int64) *trace.Trace {
		tr, _ := runJob(t, 4, 2, core.ModeTSC, seed, noise.Cluster(), miniApp)
		return tr
	}
	a, b := run(1), run(999)
	same := true
	for li := range a.Locs {
		ae, be := a.Locs[li].Events, b.Locs[li].Events
		if len(ae) != len(be) {
			same = false
			break
		}
		for ei := range ae {
			if ae[ei].Time != be[ei].Time {
				same = false
			}
		}
	}
	if same {
		t.Fatal("tsc timestamps identical across different noise seeds")
	}
}

func TestInstrumentationAddsOverhead(t *testing.T) {
	_, ref := runJob(t, 2, 2, "", 1, noise.Params{}, miniApp)
	_, ins := runJob(t, 2, 2, core.ModeBB, 1, noise.Params{}, miniApp)
	if ins <= ref {
		t.Fatalf("instrumented run (%g) not slower than reference (%g)", ins, ref)
	}
}

func TestHeavyModesCostMoreThanLight(t *testing.T) {
	_, lt1 := runJob(t, 2, 2, core.ModeLt1, 1, noise.Params{}, miniApp)
	_, bb := runJob(t, 2, 2, core.ModeBB, 1, noise.Params{}, miniApp)
	if bb <= lt1 {
		t.Fatalf("lt_bb (%g) should cost more than lt_1 (%g)", bb, lt1)
	}
}

func TestOmpCallChargesXandY(t *testing.T) {
	// A parallel region must add X basic blocks / Y statements per OpenMP
	// call to the counts, so lt_bb/lt_stmt see effort in the runtime.
	tr, _ := runJob(t, 1, 2, core.ModeBB, 1, noise.Params{}, func(r *Rank) {
		r.ParallelFor("empty", 2, func(lo, hi int, th *Thread) {})
	})
	// Find a barrier enter/exit pair on the master and check the stamp
	// gap reflects the X=100 charge (plus per-event +1s).
	master := tr.Locs[0]
	var barEnter, barExit uint64
	barID := trace.RegionID(-1)
	for i, reg := range tr.Regions {
		if reg.Role == trace.RoleOmpBarrier {
			barID = trace.RegionID(i)
		}
	}
	if barID < 0 {
		t.Fatal("no barrier region in trace")
	}
	for _, e := range master.Events {
		if e.Region == barID && e.Kind == trace.EvEnter && barEnter == 0 {
			barEnter = e.Time
		}
		if e.Region == barID && e.Kind == trace.EvExit && barExit == 0 && barEnter != 0 {
			barExit = e.Time
		}
	}
	if barEnter == 0 || barExit == 0 {
		t.Fatal("barrier events missing")
	}
	// The enter stamp includes the X charge from the barrier's
	// ompCallCounts; the gap to the previous event must exceed X.
	if barExit-barEnter > 1000 {
		t.Fatalf("implausible barrier gap %d", barExit-barEnter)
	}
}

func TestWaitallRecordsRecvEvents(t *testing.T) {
	tr, _ := runJob(t, 2, 1, core.ModeLt1, 1, noise.Params{}, func(r *Rank) {
		other := 1 - r.Rank()
		reqs := []*simmpi.Request{r.Irecv(other, 3)}
		r.Isend(other, 3, []float64{1}, 8)
		r.Waitall(reqs)
	})
	for _, l := range tr.Locs {
		recvs := 0
		inWaitall := false
		for _, e := range l.Events {
			switch e.Kind {
			case trace.EvEnter:
				if tr.Regions[e.Region].Name == "MPI_Waitall" {
					inWaitall = true
				}
			case trace.EvExit:
				if tr.Regions[e.Region].Name == "MPI_Waitall" {
					inWaitall = false
				}
			case trace.EvRecv:
				recvs++
				if !inWaitall {
					t.Fatal("recv event outside MPI_Waitall region")
				}
			}
		}
		if recvs != 1 {
			t.Fatalf("rank %d has %d recv events, want 1", l.Rank, recvs)
		}
	}
}

func TestSpinWaitVisibleToHwctrOnly(t *testing.T) {
	// Rank 1 is late; rank 0 waits in Recv.  Under lt_hwctr the waiting
	// shows as a large stamp gap inside MPI_Recv; under lt_stmt it is
	// only the per-event +1s.
	app := func(r *Rank) {
		if r.Rank() == 0 {
			r.Recv(1, 0)
		} else {
			r.Work(work.Cost{Instr: 50e6, Flops: 50e6}) // ~ tens of ms
			r.Send(0, 0, []float64{1}, 8)
		}
	}
	gap := func(mode core.Mode) uint64 {
		tr, _ := runJob(t, 2, 1, mode, 1, noise.Params{}, app)
		l := tr.Locs[0]
		var enter uint64
		for _, e := range l.Events {
			if e.Kind == trace.EvEnter && tr.Regions[e.Region].Name == "MPI_Recv" {
				enter = e.Time
			}
			if e.Kind == trace.EvExit && tr.Regions[e.Region].Name == "MPI_Recv" {
				return e.Time - enter
			}
		}
		t.Fatal("no MPI_Recv region found")
		return 0
	}
	hw := gap(core.ModeHwctr)
	st := gap(core.ModeStmt)
	if hw < 1000*st {
		t.Fatalf("spin wait not visible to lt_hwctr: hwctr gap %d vs stmt gap %d", hw, st)
	}
}
