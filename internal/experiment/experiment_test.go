package experiment

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/work"
)

// tinySpec is a fast synthetic configuration for harness tests.
func tinySpec() Spec {
	return Spec{
		Name: "tiny", Ranks: 4, Threads: 2, Nodes: 1,
		App: func(r *measure.Rank) AppResult {
			blocks := 4
			if r.Rank() == 0 {
				blocks = 12
			}
			phase0 := r.Now()
			r.Region("setup", func() {
				for b := 0; b < blocks; b++ {
					r.Region("block", func() {
						r.Work(work.PerIter(work.Cost{Instr: 2e4, Flops: 2e4, BB: 500, Stmt: 1800, Bytes: 6e3}, 50))
					})
				}
			})
			setup := r.Now() - phase0
			r.Allreduce([]float64{1}, 0)
			r.ParallelFor("solve", 256, func(lo, hi int, th *measure.Thread) {
				th.Work(work.PerIter(work.Cost{Instr: 1e4, Flops: 1e4, BB: 200, Stmt: 700, Bytes: 4e3}, float64(hi-lo)))
			})
			return AppResult{Check: 1, Phases: map[string]float64{"setup": setup}}
		},
	}
}

func TestSpecsCoverThePaper(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Specs(Options{}) {
		names[s.Name] = true
		if s.Ranks <= 0 || s.Threads <= 0 || s.Nodes <= 0 || s.App == nil {
			t.Fatalf("spec %s malformed: %+v", s.Name, s)
		}
		if s.Ranks*s.Threads > s.Nodes*128 {
			t.Fatalf("spec %s oversubscribes the machine", s.Name)
		}
	}
	for _, want := range []string{"MiniFE-1", "MiniFE-2", "LULESH-1", "LULESH-2",
		"TeaLeaf-1", "TeaLeaf-2", "TeaLeaf-3", "TeaLeaf-4"} {
		if !names[want] {
			t.Fatalf("missing configuration %s", want)
		}
	}
	if _, err := SpecByName("nope", Options{}); err == nil {
		t.Fatal("expected error for unknown spec")
	}
}

func TestRunReferenceVsMeasured(t *testing.T) {
	spec := tinySpec()
	ref, err := Run(spec, "", 1, noise.Params{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Trace != nil || ref.Profile != nil {
		t.Fatal("reference run should have no trace")
	}
	ins, err := Run(spec, core.ModeBB, 1, noise.Params{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Trace == nil || ins.Profile == nil {
		t.Fatal("measured run lost its trace or profile")
	}
	if ins.Wall <= ref.Wall {
		t.Fatalf("instrumented wall %g not above reference %g", ins.Wall, ref.Wall)
	}
	if ins.Phases["setup"] <= 0 {
		t.Fatal("phase time missing")
	}
	for r, c := range ins.Checks {
		if c != ref.Checks[r] {
			t.Fatalf("rank %d: instrumentation changed the numerics", r)
		}
	}
}

func TestStudyProtocol(t *testing.T) {
	st, err := RunStudy(tinySpec(), StudyOptions{Reps: 3, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Refs) != 3 {
		t.Fatalf("want 3 reference runs, got %d", len(st.Refs))
	}
	for _, m := range core.AllModes() {
		if len(st.Runs[m]) != 3 {
			t.Fatalf("mode %s: want 3 runs, got %d", m, len(st.Runs[m]))
		}
		analyzed := 0
		for _, r := range st.Runs[m] {
			if r.Profile != nil {
				analyzed++
			}
		}
		if m.Deterministic() && analyzed != 1 {
			t.Fatalf("deterministic mode %s analyzed %d times, want 1", m, analyzed)
		}
		if !m.Deterministic() && analyzed != 3 {
			t.Fatalf("noisy mode %s analyzed %d times, want 3", m, analyzed)
		}
	}
	// Logical modes repeat exactly; tsc must not.
	if j := st.MinRepJaccard(core.ModeTSC); j >= 1 {
		t.Fatalf("tsc rep-to-rep Jaccard = %g, expected < 1 under noise", j)
	}
	if j := st.MinRepJaccard(core.ModeStmt); j != 1 {
		t.Fatalf("lt_stmt rep-to-rep Jaccard = %g, want exactly 1", j)
	}
	// Similarity to tsc must be a sane score.
	for _, m := range core.LogicalModes() {
		j := st.JaccardVsTsc(m)
		if j <= 0 || j > 1 {
			t.Fatalf("J(%s vs tsc) = %g out of range", m, j)
		}
	}
	// Overheads: the heavyweight clock costs more than the light one.
	if st.Overhead(core.ModeBB) <= st.Overhead(core.ModeLt1) {
		t.Fatalf("lt_bb overhead %.2f%% not above lt_1 %.2f%%",
			st.Overhead(core.ModeBB), st.Overhead(core.ModeLt1))
	}
}

func TestReportRenderers(t *testing.T) {
	st, err := RunStudy(tinySpec(), StudyOptions{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	st.Spec.Name = "MiniFE-2" // reuse as a stand-in for the renderers
	var buf bytes.Buffer
	TableI(&buf, st, st, st)
	TableII(&buf, []*Study{st})
	Fig2(&buf, st)
	FigJaccard(&buf, "FIG X", []*Study{st})
	Fig5(&buf, st, st)
	Fig6(&buf, st, st)
	Fig7(&buf, st)
	Fig8(&buf, st)
	Fig9(&buf, st)
	out := buf.String()
	for _, want := range []string{"TABLE I", "TABLE II", "FIG 2", "FIG X", "FIG 5a",
		"FIG 6a", "FIG 7", "FIG 8", "FIG 9a", "lt_hwctr", "tsc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestUnknownModeRejectedUpFront: every entry point rejects a mode
// core.New cannot build with one error naming it, before any job runs,
// and accepts the modes beyond the paper's six.
func TestUnknownModeRejectedUpFront(t *testing.T) {
	spec := tinySpec()
	bogus := core.Mode("bogus")
	reg := obs.NewRegistry()
	cfg := measure.DefaultConfig(bogus)
	_, runErr := RunWithOptions(spec, RunOptions{Cfg: &cfg, Metrics: reg})
	_, studyErr := RunStudy(spec, StudyOptions{Reps: 1, Modes: []core.Mode{core.ModeStmt, bogus}, Metrics: reg})
	_, propErr := RunPropagationStudy(spec, PropagationOptions{Modes: []core.Mode{core.ModeTSC, bogus}, Metrics: reg}, oneOffPlan(spec))
	for _, c := range []struct {
		entry string
		err   error
	}{{"RunWithOptions", runErr}, {"RunStudy", studyErr}, {"RunPropagationStudy", propErr}} {
		if c.err == nil || !strings.Contains(c.err.Error(), `unknown clock mode "bogus"`) {
			t.Errorf("%s: err = %v, want one naming the mode", c.entry, c.err)
		}
	}
	if n := reg.Counter("experiment_jobs").Value(); n != 0 {
		t.Errorf("%d jobs ran before the unknown mode was rejected", n)
	}
	if _, err := RunStudy(spec, StudyOptions{Reps: 1, Modes: []core.Mode{core.ModeWStmt, core.ModeHwComb}}); err != nil {
		t.Errorf("RunStudy rejected a known mode: %v", err)
	}
}

// A negative repetition count fails at each study entry point with one
// line naming the value, before any job is queued.
func TestNegativeRepsRejectedUpFront(t *testing.T) {
	spec := tinySpec()
	reg := obs.NewRegistry()
	_, studyErr := RunStudy(spec, StudyOptions{Reps: -1, Metrics: reg})
	_, faultErr := RunFaultStudy(spec, StudyOptions{Reps: -1, Metrics: reg}, oneOffPlan(spec))
	_, scaleErr := RunScaling(spec, [][2]int{{1, 1}, {2, 1}}, ScalingOptions{Reps: -1, Metrics: reg})
	for _, c := range []struct {
		entry string
		err   error
	}{{"RunStudy", studyErr}, {"RunFaultStudy", faultErr}, {"RunScaling", scaleErr}} {
		if c.err == nil || !strings.Contains(c.err.Error(), "repetition count -1") || strings.Contains(c.err.Error(), "\n") {
			t.Errorf("%s: err = %v, want one line naming the count", c.entry, c.err)
		}
	}
	if n := reg.Counter("experiment_jobs").Value(); n != 0 {
		t.Errorf("%d jobs ran before the negative count was rejected", n)
	}
}
