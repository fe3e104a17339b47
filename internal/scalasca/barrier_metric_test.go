package scalasca

import (
	"testing"

	"repro/internal/trace"
)

// TestMPIBarrierWaitsClassifiedSeparately checks that waiting in an
// MPI_Barrier lands under wait_barrier, not under wait_nxn.
func TestMPIBarrierWaitsClassifiedSeparately(t *testing.T) {
	tr, locs := newTrace(2)
	main := tr.Region("main", trace.RoleUser)
	bar := tr.Region("MPI_Barrier", trace.RoleMPIColl)
	ar := tr.Region("MPI_Allreduce", trace.RoleMPIColl)
	build := func(l int, barEnter, arEnter uint64) {
		tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
		tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: barEnter, Region: bar})
		tr.Record(l, trace.Event{Kind: trace.EvCollEnd, Time: 200, A: 0, B: 0, C: 0})
		tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 205, Region: bar})
		tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: arEnter, Region: ar})
		tr.Record(l, trace.Event{Kind: trace.EvCollEnd, Time: 500, A: 0, B: 1, C: 8})
		tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 505, Region: ar})
		tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 600, Region: main})
	}
	build(locs[0], 100, 300) // waits 50 at barrier, 100 at allreduce
	build(locs[1], 150, 400)
	p, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.TotalByName(MWaitBarrier); got != 50 {
		t.Fatalf("wait_barrier = %g, want 50", got)
	}
	if got := p.TotalByName(MWaitNxN); got != 100 {
		t.Fatalf("wait_nxn = %g, want 100", got)
	}
}
