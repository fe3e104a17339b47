package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/obs/perfetto"
	"repro/internal/propagation"
	"repro/internal/runcache"
)

// PropagationOptions controls a delay-propagation study.
type PropagationOptions struct {
	// Modes restricts the timer modes (default: all six).  Include tsc to
	// get the per-mode front comparison — tsc is the reference clock.
	Modes []core.Mode
	// Seed seeds fault-plan jitter.
	Seed int64
	// Workers caps the job pool's goroutines (0 = GOMAXPROCS); results
	// are byte-identical for every worker count, like every study.
	Workers int
	// Cache, when non-nil, serves runs from the content-addressed cache.
	Cache *runcache.Cache
	// Metrics and Progress are the usual observe-only hooks.
	Metrics  *obs.Registry
	Progress *obs.Progress
	// KernelWorkers is read by nothing: every simulation runs on the
	// kernel's one sequential scheduler.
	//
	// Deprecated: parallelise a grid with Workers instead.
	KernelWorkers int

	modesDefaulted bool
}

func (o PropagationOptions) fill() PropagationOptions {
	if len(o.Modes) == 0 {
		o.Modes = core.AllModes()
		o.modesDefaulted = true
	}
	return o
}

// ModePropagation is one clock's view of the injected fault.
type ModePropagation struct {
	Mode core.Mode `json:"mode"`
	// Err is non-empty when either run was dropped or the analysis
	// failed; the remaining fields are then zero.
	Err string `json:"err,omitempty"`
	// BaselineWall and FaultedWall are the two runs' virtual seconds.
	BaselineWall float64 `json:"baseline_wall"`
	FaultedWall  float64 `json:"faulted_wall"`
	// Applied is the faulted run's applied-fault log.
	Applied []faults.AppliedFault `json:"applied,omitempty"`
	// Analysis is the full propagation picture in this clock's ticks.
	Analysis *propagation.Analysis `json:"analysis,omitempty"`
	// VsTSC compares this mode's front against the tsc reference (nil
	// for tsc itself, or when tsc is not in the mode list).
	VsTSC *propagation.FrontMatch `json:"vs_tsc,omitempty"`
}

// PropagationStudy is the complete result: per mode, a baseline and a
// faulted run of the same (spec, seed) diffed through the propagation
// analyzer.
type PropagationStudy struct {
	Spec    string            `json:"spec"`
	Ranks   int               `json:"ranks"`
	Plan    string            `json:"plan"`
	Seed    int64             `json:"seed"`
	Modes   []ModePropagation `json:"modes"`
	Dropped []DroppedRep      `json:"dropped,omitempty"`
	spec    Spec
	plan    faults.Plan
}

// RunPropagationStudy runs the paired grid: for every mode one baseline
// and one faulted run (same seed, same config), pool-parallel and
// cache-aware, then aligns each pair through propagation.Analyze.  The
// study degrades per mode — a dropped run or failed alignment marks that
// mode's Err and the rest proceed.  It fails outright only when every
// mode failed, a mode is unknown, or the plan is empty or invalid.
func RunPropagationStudy(spec Spec, opts PropagationOptions, plan faults.Plan) (*PropagationStudy, error) {
	if plan.Empty() {
		return nil, fmt.Errorf("experiment %s: propagation study needs a non-empty plan", spec.Name)
	}
	// Validate the plan against the spec's machine, and the modes, up
	// front: either fails every job identically, and the pool's
	// retry-then-drop degradation would bury the cause under "run
	// dropped" noise.
	mc := machine.Jureca(spec.Nodes)
	if err := plan.Validate(spec.Ranks, mc.Nodes, mc.TotalDomains()); err != nil {
		return nil, fmt.Errorf("experiment %s: %w", spec.Name, err)
	}
	opts = opts.fill()
	if err := checkModes(spec, opts.Modes...); err != nil {
		return nil, err
	}
	if plan.Seed == 0 {
		plan.Seed = opts.Seed
	}
	st := &PropagationStudy{
		Spec: spec.Name, Ranks: spec.Ranks, Plan: plan.Describe(), Seed: opts.Seed,
		spec: spec, plan: plan,
	}
	jobs := propagationJobs(spec, opts, plan)
	opts.Progress.Start(len(jobs), spec.Name)
	results, drops := runPool(jobs, opts.Workers, opts.Cache, newPoolHooks(opts.Metrics, opts.Progress), nil)
	opts.Progress.Finish()
	st.Dropped = flattenDrops(drops)

	// Pass 1: per-mode analyses.  Pass 2: fronts vs the tsc reference.
	analyses := make(map[core.Mode]*propagation.Analysis)
	for i, mode := range opts.Modes {
		mp := ModePropagation{Mode: mode}
		baseline, faulted := results[2*i], results[2*i+1]
		switch {
		case baseline == nil:
			mp.Err = "baseline run dropped"
		case faulted == nil:
			mp.Err = "faulted run dropped"
		default:
			mp.BaselineWall, mp.FaultedWall = baseline.Wall, faulted.Wall
			mp.Applied = faulted.Applied
			a, err := propagation.Analyze(baseline.Trace, faulted.Trace, propagation.Options{})
			if err != nil {
				mp.Err = err.Error()
			} else {
				mp.Analysis = a
				analyses[mode] = a
			}
		}
		st.Modes = append(st.Modes, mp)
	}
	if ref := analyses[core.ModeTSC]; ref != nil {
		for i := range st.Modes {
			if st.Modes[i].Mode != core.ModeTSC && st.Modes[i].Analysis != nil {
				st.Modes[i].VsTSC = propagation.MatchFront(st.Modes[i].Analysis, ref)
			}
		}
	}
	ok := 0
	for _, mp := range st.Modes {
		if mp.Err == "" {
			ok++
		}
	}
	if ok == 0 {
		return nil, fmt.Errorf("experiment %s: every propagation mode failed; first: %s",
			spec.Name, st.Modes[0].Err)
	}
	return st, nil
}

// DefaultPropagationPlanFor sizes the canonical propagation experiment
// for a configuration: one uninstrumented reference run establishes the
// wall time, then a single one-off delay lands on the middle rank at 30%
// of it, sized at 5% of it — on the 30-iteration patterns that is a
// delay of one to two iteration periods, large enough to dominate every
// other timing effect yet small enough that the slack variants' per-hop
// idle time can visibly erode it before the run ends.
func DefaultPropagationPlanFor(spec Spec, opts PropagationOptions) (faults.Plan, error) {
	opts = opts.fill()
	ref, err := runIsolated(spec, RunOptions{Seed: opts.Seed})
	if err != nil {
		return faults.Plan{}, fmt.Errorf("experiment %s: sizing reference: %w", spec.Name, err)
	}
	return faults.AfzalPlan(spec.Ranks, 0.3*ref.Wall, 0.05*ref.Wall), nil
}

// propagationJobs enumerates the paired grid: slots 2i / 2i+1 hold mode
// i's baseline and faulted runs.  Both share the study seed, so the only
// difference between the pair is the fault plan — the contract the
// analyzer's event alignment rests on.  Unlike the other studies, the
// runs are noise-free: the faulted-minus-baseline delta is then the
// injected fault's signal alone.
func propagationJobs(spec Spec, opts PropagationOptions, plan faults.Plan) []Job {
	jobs := make([]Job, 0, 2*len(opts.Modes))
	for _, mode := range opts.Modes {
		cfg := measure.DefaultConfig(mode)
		for _, withFaults := range []bool{false, true} {
			o := RunOptions{Cfg: &cfg, Seed: opts.Seed, Metrics: opts.Metrics}
			if withFaults {
				p := plan
				o.Faults = &p
			}
			jobs = append(jobs, Job{Slot: len(jobs), Spec: spec, Mode: mode, Opts: o})
		}
	}
	return jobs
}

// WriteJSON renders the study as deterministic JSON: struct field order
// is fixed, mode order follows the options, and nothing passes through a
// Go map — so `-j 1` and `-j 16` runs (and cached reruns) emit identical
// bytes.  That determinism is golden-pinned in propstudy_test.go.
func (st *PropagationStudy) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// PropagationReport renders the study as text: the per-mode front/decay
// table, then per-rank detail for the reference clock.
func PropagationReport(w io.Writer, st *PropagationStudy) {
	fmt.Fprintf(w, "DELAY PROPAGATION — %s (%d ranks)\n", st.Spec, st.Ranks)
	fmt.Fprintf(w, "plan: %s\n", st.Plan)
	fmt.Fprintf(w, "applied: %s\n\n", describeApplied(st.Modes))
	fmt.Fprintf(w, "%-10s %9s %8s %12s %14s %24s %10s  %s\n",
		"mode", "observed", "reached", "front r/it", "front r/vs", "decay/nondec/absorbed", "settle@it", "front vs tsc")
	for _, mp := range st.Modes {
		if mp.Err != "" {
			fmt.Fprintf(w, "%-10s failed: %s\n", mp.Mode, mp.Err)
			continue
		}
		a := mp.Analysis
		settle := "-"
		if a.Desync.SettleIter >= 0 {
			settle = fmt.Sprintf("%d", a.Desync.SettleIter)
		} else if a.Observed && a.Desync.Iterations > 0 {
			settle = "never"
		}
		vs := "(reference)"
		if mp.Mode != core.ModeTSC {
			vs = mp.VsTSC.Summary()
		}
		fmt.Fprintf(w, "%-10s %9v %8d %12.2f %14.3g %24s %10s  %s\n",
			mp.Mode, a.Observed, a.Reached,
			a.FrontSpeedRanksPerIter,
			a.FrontSpeedRanksPerTick/perfetto.TickSeconds(a.Clock),
			fmt.Sprintf("%d/%d/%d", a.Decaying, a.NonDecay, a.Absorbed),
			settle, vs)
	}
	if ref := findMode(st.Modes, core.ModeTSC); ref != nil && ref.Analysis != nil {
		a := ref.Analysis
		fmt.Fprintf(w, "\nper-rank fronts (%s, threshold %.3g ticks):\n", a.Clock, a.ThresholdTicks)
		fmt.Fprintf(w, "%-6s %12s %10s %12s %12s %12s  %s\n",
			"rank", "peak", "front@it", "slack", "slack frac", "final", "class")
		for _, rd := range a.Ranks {
			front := "-"
			if rd.FrontIter >= 0 {
				front = fmt.Sprintf("%d", rd.FrontIter)
			} else if rd.FrontTime >= 0 {
				front = "pre-0"
			}
			fmt.Fprintf(w, "%-6d %12.4g %10s %12.4g %12.3f %12.4g  %s\n",
				rd.Rank, rd.Peak, front, rd.SlackTicks, rd.SlackFrac, rd.Final, rd.Class)
		}
		if a.Desync.Iterations > 0 {
			d := a.Desync
			fmt.Fprintf(w, "\ndesync (%s): %d iterations, mean period %.4g ticks, spread pre %.3f peak %.3f final %.3f\n",
				a.Clock, d.Iterations, d.MeanPeriod, d.PreSpread, d.PeakSpread, d.FinalSpread)
		}
	}
	for _, d := range st.Dropped {
		fmt.Fprintf(w, "dropped: %s (seed %d): %s\n", d.Mode, d.Seed, d.Err)
	}
}

// describeApplied summarises the applied-fault log of the first mode that
// has one (the log is a physical-execution property, identical across
// modes up to observation).
func describeApplied(modes []ModePropagation) string {
	for _, mp := range modes {
		if len(mp.Applied) == 0 {
			continue
		}
		// Applied is already in (At, kind, target) order — the injector's
		// deterministic sort — so render it as-is.
		parts := make([]string, 0, len(mp.Applied))
		for _, a := range mp.Applied {
			target := fmt.Sprintf("rank %d", a.Rank)
			if a.Resource != "" {
				target = a.Resource
			}
			parts = append(parts, fmt.Sprintf("%s on %s at t=%.4gs (x%.4g)", a.Kind, target, a.At, a.Magnitude))
		}
		return fmt.Sprintf("%d events: %s", len(mp.Applied), strings.Join(parts, "; "))
	}
	return "none recorded"
}

func findMode(modes []ModePropagation, m core.Mode) *ModePropagation {
	for i := range modes {
		if modes[i].Mode == m {
			return &modes[i]
		}
	}
	return nil
}
