package scalasca

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/simmpi"
	"repro/internal/simomp"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/work"
)

// runAnalysis runs a measured job end to end: simulate, trace, analyze.
func runAnalysis(t *testing.T, ranks, threads int, mode core.Mode, np noise.Params, seed int64, app func(r *measure.Rank)) *cube.Profile {
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
	meas := measure.New(measure.DefaultConfig(mode))
	w.Launch(func(p *simmpi.Proc) {
		r := measure.NewRank(meas, p)
		r.Begin()
		app(r)
		r.End()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	prof, err := Analyze(meas.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// imbalancedApp gives rank 0 three times the work of the others before an
// allreduce — the MiniFE-style artificial imbalance.  The heavy rank also
// performs proportionally more instrumented calls and loop iterations, as
// a real finite-element assembly over 3x the elements would; this is what
// lets even lt_1 (which only counts events) see the imbalance, as the
// paper observes in MiniFE-1.
func imbalancedApp(r *measure.Rank) {
	factor := 1
	if r.Rank() == 0 {
		factor = 3
	}
	r.Region("assemble", func() {
		for b := 0; b < 10*factor; b++ {
			r.Region("element_block", func() {
				r.Work(work.PerIter(work.Cost{Instr: 4e4, Flops: 4e4, BB: 800, Stmt: 3000, Bytes: 1e4}, 100))
			})
		}
	})
	r.Allreduce([]float64{1}, simmpi.OpSum)
	r.Region("solve", func() {
		r.Work(work.PerIter(work.Cost{Instr: 1e5, Flops: 1e5, BB: 2000, Stmt: 8000, Bytes: 3e4}, 100))
	})
	r.Barrier()
}

func TestImbalanceProducesWaitNxNInEveryClock(t *testing.T) {
	for _, mode := range core.AllModes() {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			p := runAnalysis(t, 4, 1, mode, noise.Params{}, 1, imbalancedApp)
			wait := p.PercentOfTime(MWaitNxN)
			if wait < 5 {
				t.Fatalf("wait_nxn = %.2f%%T; the imbalance should dominate", wait)
			}
			// Delay costs must point into the imbalanced region's subtree.
			dp := p.PathPercents(MDelayNxN)
			var assembleShare float64
			for path, v := range dp {
				if path == "main/assemble" || strings.HasPrefix(path, "main/assemble/") {
					assembleShare += v
				}
			}
			if assembleShare < 60 {
				t.Fatalf("delay cost share of main/assemble = %.1f%%, want most (map %v)", assembleShare, dp)
			}
		})
	}
}

func TestTimeDecomposesAcrossMetrics(t *testing.T) {
	p := runAnalysis(t, 4, 2, core.ModeTSC, noise.Params{}, 1, imbalancedApp)
	total := p.TotalByName(MTime)
	parts := p.TotalByName(MComp) + p.TotalByName(MMPI) + p.TotalByName(MOmp) + p.TotalByName(MIdleThreads)
	if total <= 0 {
		t.Fatal("no time recorded")
	}
	if r := parts / total; r < 0.98 || r > 1.02 {
		t.Fatalf("comp+mpi+omp+idle = %.3f of time, want ~1", r)
	}
}

func TestOmpImbalanceShowsBarrierWait(t *testing.T) {
	app := func(r *measure.Rank) {
		r.ParallelFor("uneven", 64, func(lo, hi int, th *measure.Thread) {
			// Thread-dependent cost: higher threads do more work.
			f := float64(th.ID() + 1)
			th.Work(work.PerIter(work.Cost{Instr: 1e5 * f, Flops: 1e5 * f, Bytes: 1e4}, float64(hi-lo)))
		})
	}
	p := runAnalysis(t, 1, 4, core.ModeTSC, noise.Params{}, 1, app)
	if p.TotalByName(MBarrierWait) <= 0 {
		t.Fatal("imbalanced loop produced no barrier waiting")
	}
	// Waiting must exceed pure overhead: imbalance dominates.
	if p.TotalByName(MBarrierWait) < p.TotalByName(MBarrierOverhead) {
		t.Fatalf("barrier wait %g < overhead %g", p.TotalByName(MBarrierWait), p.TotalByName(MBarrierOverhead))
	}
}

func TestSerialRegionShowsIdleThreads(t *testing.T) {
	app := func(r *measure.Rank) {
		r.Region("serial_setup", func() {
			r.Work(work.Cost{Instr: 50e6, Flops: 50e6, Bytes: 1e6})
		})
		r.ParallelFor("compute", 64, func(lo, hi int, th *measure.Thread) {
			th.Work(work.PerIter(work.Cost{Instr: 1e5, Flops: 1e5, Bytes: 1e4}, float64(hi-lo)))
		})
	}
	p := runAnalysis(t, 1, 8, core.ModeTSC, noise.Params{}, 1, app)
	idlePct := p.PercentOfTime(MIdleThreads)
	if idlePct < 20 {
		t.Fatalf("idle threads = %.1f%%T, want substantial (serial region with 8 threads)", idlePct)
	}
	pcts := p.PathPercents(MIdleThreads)
	if pcts["main/serial_setup"] < 50 {
		t.Fatalf("idle not attributed to serial region: %v", pcts)
	}
}

func TestLogicalProfilesRepeatUnderNoise(t *testing.T) {
	a := runAnalysis(t, 4, 2, core.ModeStmt, noise.Cluster(), 7, imbalancedApp)
	b := runAnalysis(t, 4, 2, core.ModeStmt, noise.Cluster(), 1234, imbalancedApp)
	ma, mb := a.MCMap(), b.MCMap()
	if len(ma) != len(mb) {
		t.Fatalf("profile structure differs: %d vs %d entries", len(ma), len(mb))
	}
	for k, v := range ma {
		if math.Abs(v-mb[k]) > 1e-9 {
			t.Fatalf("logical profile differs at %q: %g vs %g", k, v, mb[k])
		}
	}
}

func TestTscProfilesVaryUnderNoise(t *testing.T) {
	a := runAnalysis(t, 4, 2, core.ModeTSC, noise.Cluster(), 7, imbalancedApp)
	b := runAnalysis(t, 4, 2, core.ModeTSC, noise.Cluster(), 1234, imbalancedApp)
	ma, mb := a.MCMap(), b.MCMap()
	same := true
	for k, v := range ma {
		if math.Abs(v-mb[k]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("tsc profiles identical across noise seeds")
	}
}

// Guard against the trace growing events the analyzer does not understand.
func TestAnalyzerHandlesEveryRecordedEventKind(t *testing.T) {
	p := runAnalysis(t, 2, 2, core.ModeLt1, noise.Params{}, 1, func(r *measure.Rank) {
		other := 1 - r.Rank()
		reqs := []*simmpi.Request{r.Irecv(other, 0)}
		r.Isend(other, 0, []float64{1}, 8)
		r.Waitall(reqs)
		r.Parallel("region", func(th *measure.Thread) {
			th.Enter("user_sub")
			th.Work(work.Cost{Instr: 1e4})
			th.Exit()
			th.Barrier()
		})
		r.Allgather([]float64{3})
		r.Alltoall([][]float64{{1}, {2}})
	})
	if p.TotalByName(MTime) <= 0 {
		t.Fatal("no time accumulated")
	}
	_ = trace.EvBarrier // silence unused import if assertions change
}
