package experiment

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/noise"
)

func oneOffPlan(spec Spec) faults.Plan {
	return faults.AfzalPlan(spec.Ranks, 1e-4, 5e-4)
}

// Acceptance: two runs with the same (config, mode, seed, fault plan)
// produce byte-identical traces — for every mode, including the
// noise-sensitive ones.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	spec := tinySpec()
	plan := oneOffPlan(spec)
	for _, mode := range []core.Mode{core.ModeStmt, core.ModeTSC, core.ModeHwctr} {
		cfg := measure.DefaultConfig(mode)
		serialize := func() string {
			res, err := RunWithOptions(spec, RunOptions{
				Cfg: &cfg, Seed: 5, Noise: noise.Cluster(), Faults: &plan, Analyze: false,
			})
			if err != nil {
				t.Fatal(err)
			}
			return traceSum(res.Trace)
		}
		if serialize() != serialize() {
			t.Fatalf("mode %s: identical (config, seed, plan) produced different traces", mode)
		}
	}
}

// A pure logical clock must filter extrinsic faults entirely: its trace
// with the fault plan is bit-identical to its trace without it, while a
// physical clock's trace must differ (the fault is physically real).  Two
// plans stand in for the two kinds of extrinsic fault: a one-off delay on
// one rank and a memory-bandwidth collapse under rank 0's NUMA domain.
func TestLogicalTraceUnchangedByFaults(t *testing.T) {
	spec := tinySpec()
	// tinySpec's working set fits in L3, where a bandwidth collapse does
	// not bite; spilling it to DRAM makes the membw window slow the job.
	app := spec.App
	spec.App = func(r *measure.Rank) AppResult {
		defer r.SpreadWorkingSet(1e9)()
		return app(r)
	}
	plans := []struct {
		name string
		plan faults.Plan
	}{
		{"oneoff", oneOffPlan(spec)},
		{"membw", faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MemDegrade, Domain: 0, Duration: 300, Factor: 0.5},
		}}},
	}
	serialize := func(mode core.Mode, p *faults.Plan) string {
		cfg := measure.DefaultConfig(mode)
		res, err := RunWithOptions(spec, RunOptions{
			Cfg: &cfg, Seed: 3, Noise: noise.Cluster(), Faults: p, Analyze: false,
		})
		if err != nil {
			t.Fatal(err)
		}
		return traceSum(res.Trace)
	}
	stmtClean, tscClean := serialize(core.ModeStmt, nil), serialize(core.ModeTSC, nil)
	for _, tc := range plans {
		if serialize(core.ModeStmt, &tc.plan) != stmtClean {
			t.Errorf("%s: lt_stmt trace changed under the fault (logical clocks must filter extrinsic faults)", tc.name)
		}
		if serialize(core.ModeTSC, &tc.plan) == tscClean {
			t.Errorf("%s: tsc trace identical with and without the fault (the fault did not bite)", tc.name)
		}
	}
}

func TestRunFaultStudy(t *testing.T) {
	spec := tinySpec()
	opts := StudyOptions{
		Reps: 2, BaseSeed: 11,
		Modes: []core.Mode{core.ModeTSC, core.ModeLt1, core.ModeStmt},
	}
	plan, err := DefaultPlanFor(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Faults) != 1 || plan.Faults[0].Kind != faults.OneOffDelay {
		t.Fatalf("DefaultPlanFor built %+v, want a single one-off delay", plan)
	}
	fs, err := RunFaultStudy(spec, opts, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Acceptance: pure logical clocks keep rep-to-rep J = 1.0 under
	// one-off delay injection; tsc does not.
	for _, mode := range []core.Mode{core.ModeLt1, core.ModeStmt} {
		if j := fs.RepStability(mode); j != 1 {
			t.Errorf("%s rep-to-rep J = %g under injection, want exactly 1", mode, j)
		}
		if j := fs.FaultShift(mode); j != 1 {
			t.Errorf("%s J(faulted vs clean) = %g, want exactly 1 (fault must be filtered)", mode, j)
		}
	}
	if j := fs.RepStability(core.ModeTSC); j >= 1 {
		t.Errorf("tsc rep-to-rep J = %g under injection, want < 1", j)
	}
	if j := fs.FaultShift(core.ModeTSC); j >= 1 {
		t.Errorf("tsc J(faulted vs clean) = %g, want < 1 (tsc must absorb the fault)", j)
	}
	// The injected delay is physically real: the faulted jobs run longer.
	if d := fs.WallDilation(core.ModeStmt); d <= 0 {
		t.Errorf("wall dilation %g%% not positive; the delay did not cost time", d)
	}
	var buf bytes.Buffer
	FaultReport(&buf, fs)
	for _, want := range []string{"FAULT RESILIENCE", "one-off", "rep-to-rep J", "tsc", "lt_stmt"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("fault report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunFaultStudyRejectsEmptyPlan(t *testing.T) {
	if _, err := RunFaultStudy(tinySpec(), StudyOptions{Reps: 1}, faults.Plan{}); err == nil {
		t.Fatal("empty plan accepted")
	}
}

// Acceptance: a study with a panicking repetition completes, retries the
// repetition with a fresh seed, and reports the rep it had to drop.
// Workers is pinned to 1: the failure is injected by counting App calls,
// which is only meaningful when jobs run in enumeration order.
func TestStudySurvivesPanickingRepetition(t *testing.T) {
	spec := tinySpec()
	inner := spec.App
	calls := 0
	spec.App = func(r *measure.Rank) AppResult {
		if r.Rank() == 0 {
			calls++
			if calls == 2 || calls == 3 { // rep 1 and its retry
				panic("boom: injected test failure")
			}
		}
		return inner(r)
	}
	st, err := RunStudy(spec, StudyOptions{
		Reps: 3, BaseSeed: 1, Modes: []core.Mode{core.ModeLt1}, Workers: 1,
	})
	if err != nil {
		t.Fatalf("study with one bad repetition failed outright: %v", err)
	}
	if len(st.Refs) != 2 {
		t.Fatalf("got %d reference runs, want 2 (one dropped)", len(st.Refs))
	}
	if len(st.Runs[core.ModeLt1]) != 3 {
		t.Fatalf("got %d lt_1 runs, want all 3", len(st.Runs[core.ModeLt1]))
	}
	if len(st.Dropped) != 1 {
		t.Fatalf("Dropped = %+v, want exactly one entry", st.Dropped)
	}
	d := st.Dropped[0]
	if d.Mode != "" || d.Rep != 1 {
		t.Fatalf("dropped the wrong rep: %+v", d)
	}
	if !strings.Contains(d.Err, "boom") || !strings.Contains(d.Err, "retry") {
		t.Fatalf("dropped-rep error lacks cause and retry note: %s", d.Err)
	}
}

// A panicking retry that succeeds leaves no Dropped entry.
func TestStudyRetryRecovers(t *testing.T) {
	spec := tinySpec()
	inner := spec.App
	calls := 0
	spec.App = func(r *measure.Rank) AppResult {
		if r.Rank() == 0 {
			calls++
			if calls == 1 { // first rep fails once, retry succeeds
				panic("transient failure")
			}
		}
		return inner(r)
	}
	st, err := RunStudy(spec, StudyOptions{Reps: 2, BaseSeed: 1, Modes: []core.Mode{core.ModeLt1}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Refs) != 2 || len(st.Dropped) != 0 {
		t.Fatalf("retry did not recover: refs=%d dropped=%+v", len(st.Refs), st.Dropped)
	}
}

// A panic outside actor context (before the kernel even runs) must also
// be contained by the per-repetition isolation.
func TestStudySurvivesSetupPanic(t *testing.T) {
	spec := tinySpec()
	spec.Nodes = 0 // machine.New panics on this
	_, err := RunStudy(spec, StudyOptions{Reps: 1, Modes: []core.Mode{core.ModeLt1}})
	if err == nil {
		t.Fatal("all repetitions failed but RunStudy reported success")
	}
	if !strings.Contains(err.Error(), "every repetition failed") {
		t.Fatalf("unexpected error: %v", err)
	}
}
