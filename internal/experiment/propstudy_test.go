package experiment

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/propagation"
	"repro/internal/runcache"
)

// TestPropagationRingAfzal reproduces the qualitative Afzal result on the
// lockstep halo ring and checks what each clock sees:
//
//   - tsc: the one-off delay's front reaches most of the ring at on the
//     order of one rank per iteration, non-decaying (no slack to absorb it);
//   - pure logical clocks: byte-identical traces with and without the
//     fault — zero delta, "sees nothing";
//   - the slack variant: the same physical delay decays or is absorbed on
//     part of the ring instead of sticking everywhere.
func TestPropagationRingAfzal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick simulations")
	}
	spec, err := SpecByName("Ring-16", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := PropagationOptions{Seed: 1}
	plan, err := DefaultPropagationPlanFor(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunPropagationStudy(spec, opts, plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PropagationReport(&buf, st)
	t.Logf("report:\n%s", buf.String())

	byMode := make(map[core.Mode]*ModePropagation)
	for i := range st.Modes {
		byMode[st.Modes[i].Mode] = &st.Modes[i]
	}
	tsc := byMode[core.ModeTSC]
	if tsc == nil || tsc.Err != "" {
		t.Fatalf("tsc mode failed: %+v", tsc)
	}
	a := tsc.Analysis
	if !a.Observed {
		t.Fatal("tsc did not observe the fault")
	}
	if len(tsc.Applied) != 1 {
		t.Fatalf("want 1 applied fault, got %v", tsc.Applied)
	}
	if a.InjectRank != spec.Ranks/2 {
		t.Errorf("injection site: want rank %d, got %d", spec.Ranks/2, a.InjectRank)
	}
	if a.Reached < spec.Ranks/2 {
		t.Errorf("front reached only %d of %d ranks", a.Reached, spec.Ranks)
	}
	if a.FrontSpeedRanksPerIter < 0.5 || a.FrontSpeedRanksPerIter > 2.5 {
		t.Errorf("front speed %.2f ranks/iter outside the ~1 rank/iter regime", a.FrontSpeedRanksPerIter)
	}
	if a.Decaying > a.NonDecay {
		t.Errorf("lockstep ring should transport, not decay: %d decaying vs %d non-decaying",
			a.Decaying, a.NonDecay)
	}

	for _, mode := range []core.Mode{core.ModeLt1, core.ModeLoop, core.ModeBB, core.ModeStmt} {
		mp := byMode[mode]
		if mp == nil || mp.Err != "" {
			t.Fatalf("%s failed: %+v", mode, mp)
		}
		if mp.Analysis.Observed {
			t.Errorf("pure logical clock %s observed the fault", mode)
		}
		if got := mp.VsTSC.Summary(); got != "sees nothing" {
			t.Errorf("%s vs tsc: want %q, got %q", mode, "sees nothing", got)
		}
	}
	// lt_hwctr counts spin instructions, so unlike the pure modes it sees
	// *something* of the wait the delay creates downstream.
	if hw := byMode[core.ModeHwctr]; hw == nil || hw.Err != "" {
		t.Fatalf("lt_hwctr failed: %+v", hw)
	} else if !hw.Analysis.Observed {
		t.Error("lt_hwctr should partially observe the fault through spin waits")
	}
}

// TestPropagationSlackDecays runs the same experiment on the slack
// variant: with ranks regularly idling at their halo exchanges, part of
// the ring absorbs the delay instead of transporting it unchanged.
func TestPropagationSlackDecays(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick simulations")
	}
	tscOf := func(name string) *propagation.Analysis {
		spec, err := SpecByName(name, Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		opts := PropagationOptions{Seed: 1, Modes: []core.Mode{core.ModeTSC}}
		plan, err := DefaultPropagationPlanFor(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := RunPropagationStudy(spec, opts, plan)
		if err != nil {
			t.Fatal(err)
		}
		if st.Modes[0].Err != "" {
			t.Fatalf("%s tsc failed: %s", name, st.Modes[0].Err)
		}
		return st.Modes[0].Analysis
	}
	tight := tscOf("Ring-16")
	loose := tscOf("RingSlack-16")
	var tightSlack, looseSlack float64
	for r := range tight.Ranks {
		tightSlack += tight.Ranks[r].SlackFrac
		looseSlack += loose.Ranks[r].SlackFrac
	}
	t.Logf("mean slack frac: tight %.3f loose %.3f", tightSlack/16, looseSlack/16)
	t.Logf("tight: reached %d, decay/nondec/abs %d/%d/%d", tight.Reached, tight.Decaying, tight.NonDecay, tight.Absorbed)
	t.Logf("loose: reached %d, decay/nondec/abs %d/%d/%d", loose.Reached, loose.Decaying, loose.NonDecay, loose.Absorbed)
	if looseSlack <= tightSlack {
		t.Errorf("slack variant has no extra communication slack: %.3f vs %.3f", looseSlack, tightSlack)
	}
	// The Afzal contrast: with slack, strictly fewer ranks keep the full
	// delay to the end of the run.
	if loose.NonDecay >= tight.NonDecay {
		t.Errorf("slack did not erode the front: non-decaying %d (slack) vs %d (lockstep)",
			loose.NonDecay, tight.NonDecay)
	}
}

// TestGoldenPropagationJSON pins the full JSON of a quick Ring-16 study
// byte-for-byte, the propagation counterpart of TestGoldenChecksums: a
// drift here means either the simulated traces moved (the trace goldens
// catch that too) or the analyzer's fronts, classes or desync metrics
// changed — both must be deliberate, with this fixture regenerated via
// -update-golden in the same commit.
func TestGoldenPropagationJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick simulations")
	}
	const path = "testdata/golden_propstudy.json"
	spec, err := SpecByName("Ring-16", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := PropagationOptions{Seed: 1}
	plan, err := DefaultPropagationPlanFor(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunPropagationStudy(spec, opts, plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden study JSON (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("propagation study JSON drifted from %s (got %d bytes, want %d);\n"+
			"regenerate with -update-golden only if the analyzer or simulation changed deliberately",
			path, buf.Len(), len(want))
	}
}

// TestPropagationStudyDeterministic asserts the acceptance criterion:
// identical JSON bytes for 1 worker, 4 workers, and a cache-served rerun.
func TestPropagationStudyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick simulations")
	}
	spec, err := SpecByName("Ring-16", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := DefaultPropagationPlanFor(spec, PropagationOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	render := func(opts PropagationOptions) string {
		st, err := RunPropagationStudy(spec, opts, plan)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	j1 := render(PropagationOptions{Seed: 7, Workers: 1})
	j4 := render(PropagationOptions{Seed: 7, Workers: 4})
	if j1 != j4 {
		t.Error("JSON differs between -j 1 and -j 4")
	}
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := render(PropagationOptions{Seed: 7, Workers: 4, Cache: cache})
	cached := render(PropagationOptions{Seed: 7, Workers: 1, Cache: cache})
	if first != j1 {
		t.Error("cache-populating run differs from uncached run")
	}
	if cached != j1 {
		t.Error("cache-served rerun differs from fresh run")
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Error("second run never hit the cache")
	}
	if !strings.Contains(j1, "\"mode\": \"tsc\"") {
		t.Error("JSON missing tsc mode entry")
	}
}
