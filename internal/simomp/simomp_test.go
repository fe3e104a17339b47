package simomp

import (
	"testing"

	"repro/internal/loc"
	"repro/internal/machine"
	"repro/internal/vtime"
	"repro/internal/work"
)

// harness spawns a master actor, builds a team of n threads on a one-node
// machine and runs body on the master.
func harness(t *testing.T, n int, body func(tm *Team, l *loc.Location)) {
	t.Helper()
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1))
	place, err := machine.PlaceBlock(m, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	locs := make([]*loc.Location, n)
	for i := range locs {
		locs[i] = &loc.Location{Index: i, Rank: 0, Thread: i, Core: place.Core(0, i), M: m}
	}
	k.Spawn("master", func(a *vtime.Actor) {
		locs[0].Actor = a
		tm := NewTeam(k, locs, DefaultCosts())
		body(tm, locs[0])
		tm.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	harness(t, 4, func(tm *Team, _ *loc.Location) {
		const n = 103
		hits := make([]int, n)
		tm.ParallelFor(n, func(lo, hi int, th *Thread) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Errorf("index %d hit %d times", i, h)
			}
		}
	})
}

func TestStaticChunksPartition(t *testing.T) {
	harness(t, 8, func(tm *Team, _ *loc.Location) {
		tm.Parallel(func(th *Thread) {
			lo, hi := th.StaticChunk(64)
			if hi-lo != 8 {
				t.Errorf("thread %d chunk [%d,%d) not 8 wide", th.ID, lo, hi)
			}
			th.Barrier()
		})
	})
}

func TestBarrierSynchronisesTime(t *testing.T) {
	harness(t, 4, func(tm *Team, _ *loc.Location) {
		releases := make([]float64, 4)
		busy := make([]float64, 4)
		tm.Parallel(func(th *Thread) {
			// Imbalanced compute: thread i works (i+1)*10ms.
			d := float64(th.ID+1) * 10e-3
			th.Loc.Actor.Compute(d)
			busy[th.ID] = th.Loc.Now()
			releases[th.ID] = th.Barrier()
		})
		for i := 1; i < 4; i++ {
			if releases[i] != releases[0] {
				t.Errorf("thread %d released at %g, thread 0 at %g", i, releases[i], releases[0])
			}
		}
		// The slowest thread (3) should have arrived last and released
		// at roughly its own arrival time.
		if releases[3] < busy[3] {
			t.Errorf("release %g before last arrival %g", releases[3], busy[3])
		}
	})
}

func TestTeamOfOne(t *testing.T) {
	harness(t, 1, func(tm *Team, _ *loc.Location) {
		n := 0
		tm.ParallelFor(10, func(lo, hi int, th *Thread) {
			n += hi - lo
		})
		if n != 10 {
			t.Errorf("single-thread team processed %d, want 10", n)
		}
	})
}

func TestWorkAdvancesCountsAndTime(t *testing.T) {
	harness(t, 2, func(tm *Team, l *loc.Location) {
		before := l.Now()
		tm.Parallel(func(th *Thread) {
			th.Loc.Work(work.Cost{Instr: 2e9, BB: 5, Stmt: 17, LoopIters: 3})
			th.Barrier()
		})
		if l.Counts.BB != 5 || l.Counts.Stmt != 17 || l.Counts.LoopIters != 3 {
			t.Errorf("counts not accumulated: %+v", l.Counts)
		}
		if l.Now() <= before {
			t.Error("virtual time did not advance")
		}
	})
}

func TestSpinForAccruesInstructions(t *testing.T) {
	harness(t, 1, func(tm *Team, l *loc.Location) {
		l.SpinFor(2e-3)
		want := 2e-3 * l.M.Cfg.SpinIPS
		if l.Counts.Instr != want {
			t.Errorf("spin instructions = %g, want %g", l.Counts.Instr, want)
		}
	})
}

func TestConsecutiveRegions(t *testing.T) {
	harness(t, 4, func(tm *Team, _ *loc.Location) {
		total := 0
		for i := 0; i < 10; i++ {
			tm.ParallelFor(4, func(lo, hi int, th *Thread) {
				total += hi - lo
			})
		}
		if total != 40 {
			t.Errorf("total = %d, want 40", total)
		}
	})
}

func TestNestedParallelPanics(t *testing.T) {
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1))
	place, _ := machine.PlaceBlock(m, 1, 2)
	locs := make([]*loc.Location, 2)
	for i := range locs {
		locs[i] = &loc.Location{Thread: i, Core: place.Core(0, i), M: m}
	}
	k.Spawn("master", func(a *vtime.Actor) {
		locs[0].Actor = a
		tm := NewTeam(k, locs, DefaultCosts())
		tm.Parallel(func(th *Thread) {
			if th.ID == 0 {
				tm.Parallel(func(*Thread) {})
			}
			th.Barrier()
		})
	})
	if err := k.Run(); err == nil {
		t.Fatal("expected nested-parallel panic surfaced as error")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() []float64 {
		var times []float64
		harness(t, 4, func(tm *Team, _ *loc.Location) {
			for i := 0; i < 5; i++ {
				tm.ParallelFor(100, func(lo, hi int, th *Thread) {
					th.Loc.Work(work.Cost{Flops: float64(hi-lo) * 1e6, Bytes: float64(hi-lo) * 1e4})
				})
				times = append(times, tm.Locations()[0].Now())
			}
		})
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at region %d: %v vs %v", i, a[i], b[i])
		}
	}
}
