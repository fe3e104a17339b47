package hybrid

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/scalasca"
	"repro/internal/simmpi"
	"repro/internal/simomp"
	"repro/internal/vtime"
	"repro/internal/work"
)

// synthetic builds profiles by hand.
func synthetic(clock string, waits map[string]map[string]float64) *cube.Profile {
	p := cube.New(clock, []string{"r0t0"})
	time := p.AddMetric(scalasca.MTime, "", cube.NoParent)
	main := p.Path(cube.NoParent, "main")
	p.Add(time, main, 0, 100)
	for metric, byPath := range waits {
		id := p.AddMetric(metric, "", time)
		for path, v := range byPath {
			parent := cube.PathID(cube.NoParent)
			for _, part := range strings.Split(path, "/") {
				parent = p.Path(parent, part)
			}
			p.Add(id, parent, 0, v)
		}
	}
	return p
}

func TestClassifiesIntrinsicAndExtrinsic(t *testing.T) {
	phys := synthetic("tsc", map[string]map[string]float64{
		scalasca.MWaitNxN:     {"main/dot": 10}, // also in logical: intrinsic
		scalasca.MLateSender:  {"main/halo": 8}, // absent in logical: extrinsic
		scalasca.MBarrierWait: {"main/loop": 6}, // half in logical: mixed
	})
	logical := synthetic("lt_stmt", map[string]map[string]float64{
		scalasca.MWaitNxN:     {"main/dot": 9},
		scalasca.MBarrierWait: {"main/loop": 3},
	})
	rep := Compare(phys, logical, 0)
	if len(rep.Findings) != 3 {
		t.Fatalf("findings = %d, want 3: %+v", len(rep.Findings), rep.Findings)
	}
	byPath := map[string]Finding{}
	for _, f := range rep.Findings {
		byPath[f.Path] = f
	}
	if v := byPath["main/dot"].Verdict; v != Intrinsic {
		t.Fatalf("dot verdict = %s, want intrinsic", v)
	}
	if v := byPath["main/halo"].Verdict; v != Extrinsic {
		t.Fatalf("halo verdict = %s, want extrinsic", v)
	}
	if v := byPath["main/loop"].Verdict; v != Mixed {
		t.Fatalf("loop verdict = %s, want mixed", v)
	}
	in, ex := rep.Totals()
	if in < 11.9 || in > 12.1 { // 9 + 0 + 3
		t.Fatalf("intrinsic total = %g, want 12", in)
	}
	if ex < 11.9 || ex > 12.1 { // 1 + 8 + 3
		t.Fatalf("extrinsic total = %g, want 12", ex)
	}
}

func TestFindingsSortedBySeverity(t *testing.T) {
	phys := synthetic("tsc", map[string]map[string]float64{
		scalasca.MWaitNxN: {"main/a": 2, "main/b": 9, "main/c": 5},
	})
	logical := synthetic("lt_1", nil)
	rep := Compare(phys, logical, 0)
	if rep.Findings[0].Path != "main/b" || rep.Findings[2].Path != "main/a" {
		t.Fatalf("not sorted by severity: %+v", rep.Findings)
	}
}

func TestMinPctFilters(t *testing.T) {
	phys := synthetic("tsc", map[string]map[string]float64{
		scalasca.MWaitNxN: {"main/tiny": 0.01, "main/big": 5},
	})
	rep := Compare(phys, synthetic("lt_1", nil), 0.1)
	if len(rep.Findings) != 1 || rep.Findings[0].Path != "main/big" {
		t.Fatalf("filter failed: %+v", rep.Findings)
	}
}

func TestRender(t *testing.T) {
	phys := synthetic("tsc", map[string]map[string]float64{
		scalasca.MWaitNxN: {"main/dot": 10},
	})
	rep := Compare(phys, synthetic("lt_stmt", nil), 0)
	var buf bytes.Buffer
	rep.Render(&buf, 10)
	out := buf.String()
	for _, want := range []string{"tsc", "lt_stmt", "extrinsic", "main/dot", "totals"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// endToEnd runs a job under tsc and a logical clock and classifies.
func endToEnd(t *testing.T, app func(r *measure.Rank)) *Report {
	t.Helper()
	run := func(mode core.Mode) *cube.Profile {
		k := vtime.NewKernel()
		m := machine.New(k, machine.Jureca(1))
		place, err := machine.PlaceBlock(m, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		nm := noise.NewModel(3, noise.Cluster())
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
		prof, err := scalasca.Analyze(meas.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	return Compare(run(core.ModeTSC), run(core.ModeStmt), 0.2)
}

func TestEndToEndImbalanceIsIntrinsic(t *testing.T) {
	// A genuine 3x load imbalance produces wait_nxn in BOTH measurements:
	// the hybrid analysis must call it intrinsic.
	rep := endToEnd(t, func(r *measure.Rank) {
		factor := 1.0
		if r.Rank() == 0 {
			factor = 3
		}
		r.Region("compute", func() {
			r.Work(work.PerIter(work.Cost{Instr: 1e5, Flops: 1e5, BB: 2000, Stmt: 7000, Bytes: 1e4}, 200*factor))
		})
		r.Allreduce([]float64{1}, simmpi.OpSum)
	})
	found := false
	for _, f := range rep.Findings {
		if f.Metric == scalasca.MWaitNxN && strings.Contains(f.Path, "MPI_Allreduce") {
			found = true
			if f.Verdict != Intrinsic {
				t.Fatalf("imbalance classified %s, want intrinsic: %+v", f.Verdict, f)
			}
		}
	}
	if !found {
		t.Fatalf("no wait_nxn finding: %+v", rep.Findings)
	}
}

func TestEndToEndNoiseWaitIsNotIntrinsic(t *testing.T) {
	// Perfectly balanced work: any wait_nxn under tsc comes from noise
	// and must not be classified intrinsic.
	rep := endToEnd(t, func(r *measure.Rank) {
		r.Region("compute", func() {
			r.Work(work.PerIter(work.Cost{Instr: 1e5, Flops: 1e5, BB: 2000, Stmt: 7000, Bytes: 1e4}, 200))
		})
		r.Allreduce([]float64{1}, simmpi.OpSum)
	})
	for _, f := range rep.Findings {
		if f.Metric == scalasca.MWaitNxN && f.Verdict == Intrinsic && f.PhysPct > 0.5 {
			t.Fatalf("noise wait classified intrinsic: %+v", f)
		}
	}
}
