package scalasca

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func near(t *testing.T, got, want float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: got %g, want %g", msg, got, want)
	}
}

// twoRankTrace builds a trace skeleton with one location per rank.
func newTrace(ranks int) (*trace.Trace, []int) {
	tr := trace.New("lt_1")
	locs := make([]int, ranks)
	for r := 0; r < ranks; r++ {
		locs[r] = tr.AddLocation(r, 0)
	}
	return tr, locs
}

func TestLateSenderDetected(t *testing.T) {
	tr, locs := newTrace(2)
	main := tr.Region("main", trace.RoleUser)
	recv := tr.Region("MPI_Recv", trace.RoleMPIP2P)
	send := tr.Region("MPI_Send", trace.RoleMPIP2P)

	// Rank 0: receiver enters early and waits.
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 10, Region: recv})
	tr.Record(locs[0], trace.Event{Kind: trace.EvRecv, Time: 110, A: 1, B: 0, C: 8})
	tr.Record(locs[0], trace.Event{Kind: trace.EvExit, Time: 115, Region: recv})
	tr.Record(locs[0], trace.Event{Kind: trace.EvExit, Time: 200, Region: main})
	// Rank 1: sender computes first (late send).
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 100, Region: send})
	tr.Record(locs[1], trace.Event{Kind: trace.EvSend, Time: 105, A: 0, B: 0, C: 8})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 110, Region: send})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 200, Region: main})

	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	near(t, p.TotalByName(MLateSender), 95, "late sender severity")
	// The wait must sit at the receiver's MPI_Recv path.
	pcts := p.PathPercents(MLateSender)
	if pcts["main/MPI_Recv"] < 99.9 {
		t.Fatalf("late sender attributed wrong: %v", pcts)
	}
	// Delay cost points at the sender's computation (main).
	near(t, p.TotalByName(MDelayLateSender), 95, "late sender delay cost")
	dpcts := p.PathPercents(MDelayLateSender)
	if dpcts["main"] < 99.9 {
		t.Fatalf("delay cost attributed wrong: %v", dpcts)
	}
	if p.TotalByName(MLateReceiver) != 0 {
		t.Fatal("no late receiver expected")
	}
}

func TestLateReceiverDetected(t *testing.T) {
	tr, locs := newTrace(2)
	main := tr.Region("main", trace.RoleUser)
	recv := tr.Region("MPI_Recv", trace.RoleMPIP2P)
	send := tr.Region("MPI_Send", trace.RoleMPIP2P)

	// Rank 0: rendezvous sender blocks from t=10 to t=110.
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 10, Region: send})
	tr.Record(locs[0], trace.Event{Kind: trace.EvSend, Time: 11, A: 1, B: 0, C: 1 << 20})
	tr.Record(locs[0], trace.Event{Kind: trace.EvExit, Time: 110, Region: send})
	tr.Record(locs[0], trace.Event{Kind: trace.EvExit, Time: 200, Region: main})
	// Rank 1: receiver arrives late.
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 100, Region: recv})
	tr.Record(locs[1], trace.Event{Kind: trace.EvRecv, Time: 110, A: 0, B: 0, C: 1 << 20})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 112, Region: recv})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 200, Region: main})

	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	near(t, p.TotalByName(MLateReceiver), 90, "late receiver severity")
	pcts := p.PathPercents(MLateReceiver)
	if pcts["main/MPI_Send"] < 99.9 {
		t.Fatalf("late receiver attributed wrong: %v", pcts)
	}
	if p.TotalByName(MLateSender) != 0 {
		t.Fatal("no late sender expected")
	}
}

func TestWaitNxNAndDelayCost(t *testing.T) {
	tr, locs := newTrace(3)
	main := tr.Region("main", trace.RoleUser)
	ar := tr.Region("MPI_Allreduce", trace.RoleMPIColl)
	enters := []uint64{10, 50, 100}
	for r, e := range enters {
		tr.Record(locs[r], trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
		tr.Record(locs[r], trace.Event{Kind: trace.EvEnter, Time: e, Region: ar})
		tr.Record(locs[r], trace.Event{Kind: trace.EvCollEnd, Time: 105, A: 0, B: 0, C: 8})
		tr.Record(locs[r], trace.Event{Kind: trace.EvExit, Time: 110, Region: ar})
		tr.Record(locs[r], trace.Event{Kind: trace.EvExit, Time: 150, Region: main})
	}
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	near(t, p.TotalByName(MWaitNxN), 140, "wait_nxn total") // 90 + 50 + 0
	// Delay cost attributed to rank 2's computation before entering.
	near(t, p.TotalByName(MDelayNxN), 140, "delay cost total")
	id, _ := p.MetricByName(MDelayNxN)
	if v := p.Value(id, p.Path(-1, "main"), 2); math.Abs(v-140) > 1e-9 {
		t.Fatalf("delay not on rank 2's main: %g", v)
	}
}

func TestConsecutiveCollectivesUseWindows(t *testing.T) {
	// Two allreduces; rank 1 is late to both.  The second instance's
	// delay window starts at the first instance's max enter, so delay
	// costs must not double count early computation.
	tr, locs := newTrace(2)
	main := tr.Region("main", trace.RoleUser)
	ar := tr.Region("MPI_Allreduce", trace.RoleMPIColl)
	add := func(l int, enter1, enter2 uint64) {
		tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
		tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: enter1, Region: ar})
		tr.Record(l, trace.Event{Kind: trace.EvCollEnd, Time: enter1 + 100, A: 0, B: 0, C: 8})
		tr.Record(l, trace.Event{Kind: trace.EvExit, Time: enter1 + 101, Region: ar})
		tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: enter2, Region: ar})
		tr.Record(l, trace.Event{Kind: trace.EvCollEnd, Time: enter2 + 100, A: 0, B: 1, C: 8})
		tr.Record(l, trace.Event{Kind: trace.EvExit, Time: enter2 + 101, Region: ar})
		tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 1000, Region: main})
	}
	add(locs[0], 10, 300)
	add(locs[1], 100, 400)
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Instance 1: waits 90; instance 2: waits 100.
	near(t, p.TotalByName(MWaitNxN), 190, "wait_nxn two instances")
	near(t, p.TotalByName(MDelayNxN), 190, "delay two instances")
}

func TestOmpBarrierWaitSplit(t *testing.T) {
	tr := trace.New("lt_1")
	l0 := tr.AddLocation(0, 0)
	l1 := tr.AddLocation(0, 1)
	par := tr.Region("!$omp parallel x", trace.RoleOmpParallel)
	bar := tr.Region("!$omp ibarrier", trace.RoleOmpBarrier)
	build := func(l int, barEnter uint64) {
		tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 10, Region: par})
		tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: barEnter, Region: bar})
		tr.Record(l, trace.Event{Kind: trace.EvBarrier, Time: barEnter + 1, A: 2, B: 0})
		tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 170, Region: bar})
		tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 175, Region: par})
	}
	build(l0, 100)
	build(l1, 160)
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	near(t, p.TotalByName(MBarrierWait), 60, "barrier wait")    // thread 0 waits 160-100
	near(t, p.TotalByName(MBarrierOverhead), 20, "barrier ovh") // (170-160) x 2
}

func TestIdleThreadsFromSequentialMaster(t *testing.T) {
	tr := trace.New("lt_1")
	master := tr.AddLocation(0, 0)
	_ = tr.AddLocation(0, 1) // worker with no events; defines team size 2
	main := tr.Region("main", trace.RoleUser)
	serial := tr.Region("assemble_serial", trace.RoleUser)
	tr.Record(master, trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	tr.Record(master, trace.Event{Kind: trace.EvEnter, Time: 50, Region: serial})
	tr.Record(master, trace.Event{Kind: trace.EvExit, Time: 150, Region: serial})
	tr.Record(master, trace.Event{Kind: trace.EvFork, Time: 160, A: 2, B: 0})
	tr.Record(master, trace.Event{Kind: trace.EvJoin, Time: 260, B: 0})
	tr.Record(master, trace.Event{Kind: trace.EvExit, Time: 300, Region: main})
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential master time: [0,160) and [260,300] = 200 -> idle 200.
	near(t, p.TotalByName(MIdleThreads), 200, "idle total")
	pcts := p.PathPercents(MIdleThreads)
	near(t, pcts["main/assemble_serial"], 50, "idle share of serial region")
	// Total time = master's 300 + 200 idle.
	near(t, p.TotalByName(MTime), 500, "time includes idle")
}

func TestCompClassification(t *testing.T) {
	tr := trace.New("lt_1")
	l := tr.AddLocation(0, 0)
	main := tr.Region("main", trace.RoleUser)
	loop := tr.Region("!$omp for x", trace.RoleOmpLoop)
	mgmt := tr.Region("!$omp parallel x", trace.RoleOmpParallel)
	tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 10, Region: mgmt})
	tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 15, Region: loop})
	tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 115, Region: loop})
	tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 120, Region: mgmt})
	tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 150, Region: main})
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	// comp = main exclusive (10 + 30) + loop body (100).
	near(t, p.TotalByName(MComp), 140, "comp")
	// management = parallel region exclusive (5 + 5).
	near(t, p.TotalByName(MOmpMgmt), 10, "omp management")
	near(t, p.TotalByName(MTime), 150, "time total")
}

func TestUnbalancedTraceRejected(t *testing.T) {
	tr := trace.New("lt_1")
	l := tr.AddLocation(0, 0)
	main := tr.Region("main", trace.RoleUser)
	tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	if _, err := Analyze(tr); err == nil {
		t.Fatal("expected error for unclosed region")
	}
	tr2 := trace.New("lt_1")
	l2 := tr2.AddLocation(0, 0)
	tr2.Record(l2, trace.Event{Kind: trace.EvExit, Time: 0, Region: main})
	if _, err := Analyze(tr2); err == nil {
		t.Fatal("expected error for exit without enter")
	}
}
