package scalasca

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/simmpi"
	"repro/internal/simomp"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/vtime"
)

// TestCriticalPathFollowsTheLateSender: rank 0 waits for rank 1's long
// computation; the critical path must run through rank 1's compute, not
// through rank 0's waiting.
func TestCriticalPathFollowsTheLateSender(t *testing.T) {
	tr, locs := newTrace(2)
	main := tr.Region("main", trace.RoleUser)
	heavy := tr.Region("heavy_compute", trace.RoleUser)
	recv := tr.Region("MPI_Recv", trace.RoleMPIP2P)
	send := tr.Region("MPI_Send", trace.RoleMPIP2P)

	// Rank 0: enters recv at t=10, message arrives at t=1005.
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 10, Region: recv})
	tr.Record(locs[0], trace.Event{Kind: trace.EvRecv, Time: 1005, A: 1, B: 0, C: 8})
	tr.Record(locs[0], trace.Event{Kind: trace.EvExit, Time: 1006, Region: recv})
	tr.Record(locs[0], trace.Event{Kind: trace.EvExit, Time: 1100, Region: main})
	// Rank 1: 990 ticks of heavy compute, then send.
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 5, Region: heavy})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 995, Region: heavy})
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 996, Region: send})
	tr.Record(locs[1], trace.Event{Kind: trace.EvSend, Time: 1000, A: 0, B: 0, C: 8})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 1002, Region: send})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 1050, Region: main})

	cp, err := CriticalPathAnalysis(tr)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Segments < 2 {
		t.Fatalf("critical path never jumped: %+v", cp)
	}
	if share := cp.Share("main/heavy_compute"); share < 70 {
		t.Fatalf("heavy compute carries %.1f%% of the critical path, want most (map %v)", share, cp.ByPath)
	}
	// Rank 0's wait inside MPI_Recv must NOT be on the path.
	for path, v := range cp.ByPath {
		if strings.Contains(path, "MPI_Recv") && v > 20 {
			t.Fatalf("waiting is on the critical path: %s = %g", path, v)
		}
	}
}

// TestCriticalPathStaysLocalWithoutWaiting: if the message was already
// there, the receiver's own timeline is the path.
func TestCriticalPathStaysLocalWithoutWaiting(t *testing.T) {
	tr, locs := newTrace(2)
	main := tr.Region("main", trace.RoleUser)
	recv := tr.Region("MPI_Recv", trace.RoleMPIP2P)
	send := tr.Region("MPI_Send", trace.RoleMPIP2P)
	// Rank 1 sends early.
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 2, Region: send})
	tr.Record(locs[1], trace.Event{Kind: trace.EvSend, Time: 3, A: 0, B: 0, C: 8})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 4, Region: send})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 10, Region: main})
	// Rank 0 computes for long, then receives instantly.
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 900, Region: recv})
	tr.Record(locs[0], trace.Event{Kind: trace.EvRecv, Time: 905, A: 1, B: 0, C: 8})
	tr.Record(locs[0], trace.Event{Kind: trace.EvExit, Time: 910, Region: recv})
	tr.Record(locs[0], trace.Event{Kind: trace.EvExit, Time: 1000, Region: main})

	cp, err := CriticalPathAnalysis(tr)
	if err != nil {
		t.Fatal(err)
	}
	if share := cp.Share("main"); share < 95 {
		t.Fatalf("receiver's own compute should be the path: main = %.1f%% (map %v)", share, cp.ByPath)
	}
}

// TestCriticalPathLengthApproximatesRunTime on a real measured job.
func TestCriticalPathLengthApproximatesRunTime(t *testing.T) {
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1))
	place, err := machine.PlaceBlock(m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := simmpi.NewWorld(k, m, place, simmpi.DefaultConfig(), simomp.DefaultCosts(), nil)
	meas := measure.New(measure.DefaultConfig(core.ModeTSC))
	w.Launch(func(p *simmpi.Proc) {
		r := measure.NewRank(meas, p)
		r.Begin()
		imbalancedApp(r)
		r.End()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	tr := meas.Trace
	cp, err := CriticalPathAnalysis(tr)
	if err != nil {
		t.Fatal(err)
	}
	var end float64
	for _, l := range tr.Locs {
		if n := len(l.Events); n > 0 {
			if ts := float64(l.Events[n-1].Time); ts > end {
				end = ts
			}
		}
	}
	if cp.Total <= 0.5*end || cp.Total > 1.01*end {
		t.Fatalf("critical path length %g vs run length %g", cp.Total, end)
	}
	// The imbalanced element blocks must appear prominently.
	var blocks float64
	for path, v := range cp.ByPath {
		if strings.Contains(path, "element_block") {
			blocks += v
		}
	}
	if blocks/cp.Total < 0.3 {
		t.Fatalf("imbalanced blocks carry only %.1f%% of the path", 100*blocks/cp.Total)
	}
	if math.IsNaN(cp.Total) {
		t.Fatal("NaN total")
	}
	if got := cp.TopPaths(3); len(got) == 0 || got[0].Percent <= 0 {
		t.Fatalf("TopPaths empty: %v", got)
	}
}

// TestCriticalPathRejectsBrokenSkeletons: a receive no send matches and
// an exit with no open region leave the walk without a sound cause
// graph, so the analysis fails and names the offending location.
func TestCriticalPathRejectsBrokenSkeletons(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  trace.Event
		want string
	}{
		{"unmatched-recv", trace.Event{Kind: trace.EvRecv, Time: 3, A: 0, B: 9, C: 8}, "loc 1 event 2: receive without matching send"},
		{"unbalanced-exit", trace.Event{Kind: trace.EvExit, Time: 3}, "loc 1: unbalanced exit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, locs := newTrace(2)
			main := tr.Region("main", trace.RoleUser)
			for _, l := range locs {
				tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
				tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 2, Region: main})
			}
			tr.Record(locs[1], tc.bad)
			_, err := CriticalPathAnalysis(tr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestCauseTableKeepsTheFirstOfEqualCauses: of the causes offered to one
// target, the table keeps the latest, and of equally late ones the first
// one offered; a later cause replaces it, an earlier one does not.
func TestCauseTableKeepsTheFirstOfEqualCauses(t *testing.T) {
	tr, locs := newTrace(3)
	main := tr.Region("main", trace.RoleUser)
	for _, l := range locs {
		tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
		tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 9, Region: main})
	}
	c := causes(tr, vclock.Extract(tr))
	target := vclock.Event{EventRef: vclock.EventRef{Loc: 2, Index: 1}, Time: 9}
	first := vclock.Event{EventRef: vclock.EventRef{Loc: 0, Index: 1}, Time: 5}
	tied := vclock.Event{EventRef: vclock.EventRef{Loc: 1, Index: 1}, Time: 5}
	earlier := vclock.Event{EventRef: vclock.EventRef{Loc: 1, Index: 0}, Time: 4}
	later := vclock.Event{EventRef: vclock.EventRef{Loc: 1, Index: 0}, Time: 6}
	want := func(step string, e vclock.Event) {
		t.Helper()
		if got, ok := c.of(target.EventRef); !ok || got != e {
			t.Fatalf("after %s: cause %+v (found %t), want %+v", step, got, ok, e)
		}
	}
	if _, ok := c.of(target.EventRef); ok {
		t.Fatal("a target nothing was offered to has a cause")
	}
	c.offer(first, target)
	c.offer(tied, target)
	want("an equally late cause", first)
	c.offer(earlier, target)
	want("an earlier cause", first)
	c.offer(later, target)
	want("a later cause", later)
	for _, ref := range []vclock.EventRef{{Loc: 0, Index: 1}, {Loc: 2, Index: 0}, {Loc: 1, Index: 1}} {
		if e, ok := c.of(ref); ok {
			t.Fatalf("event %+v has cause %+v; nothing was offered to it", ref, e)
		}
	}
}
