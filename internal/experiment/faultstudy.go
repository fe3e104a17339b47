package experiment

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/jaccard"
	"repro/internal/runcache"
)

// FaultStudy measures how each clock mode's analysis responds to
// injected faults — the first experiment beyond the paper.  It pairs a
// clean Study with a faulted one (same seeds, same noise, plus the fault
// plan) so three questions can be answered per mode:
//
//  1. Does the analysis stay stable across repetitions under injection
//     (rep-to-rep Jaccard)?  Pure logical clocks must stay at 1.0: a
//     fault is extrinsic — it changes durations, never code paths.
//  2. How far does the fault shift the analysis away from the clean
//     baseline (J of faulted vs clean mean profile)?  Physical clocks
//     must absorb the fault; pure logical clocks must filter it.
//  3. How much virtual wall time did the fault cost (dilation)?
type FaultStudy struct {
	Spec    Spec
	Plan    faults.Plan
	Clean   *Study
	Faulted *Study
}

// RunFaultStudy runs the paired protocol as one grid that keeps no
// trace.  Every repetition of both studies is analyzed, because
// rep-to-rep stability under injection is exactly what is being
// measured.
func RunFaultStudy(spec Spec, opts StudyOptions, plan faults.Plan) (*FaultStudy, error) {
	if plan.Empty() {
		return nil, fmt.Errorf("experiment %s: fault study needs a non-empty plan", spec.Name)
	}
	opts = opts.fill()
	opts.analyzeAll = true
	faulted := opts
	faulted.faults = &plan
	sts, errs := runGrid([]gridStudy{{spec: spec, opts: opts}, {spec: spec, opts: faulted}})
	if errs[0] != nil {
		return nil, fmt.Errorf("clean baseline: %w", errs[0])
	}
	if errs[1] != nil {
		return nil, fmt.Errorf("faulted study: %w", errs[1])
	}
	return &FaultStudy{Spec: spec, Plan: plan, Clean: sts[0], Faulted: sts[1]}, nil
}

// DefaultPlanFor sizes the canonical Afzal one-off-delay experiment for a
// configuration: one reference run establishes the job's wall time, then
// the delay lands on the middle rank at 30% of it, sized at 10% of it —
// late enough to hit steady state, large enough to dwarf OS noise.  The
// options are checked before anything runs.  The reference is the clean
// study's repetition-0 reference job, so with opts.Cache the fault study
// that follows is served it from the cache.
func DefaultPlanFor(spec Spec, opts StudyOptions) (faults.Plan, error) {
	opts = opts.fill()
	if err := checkReps(spec, opts.Reps); err != nil {
		return faults.Plan{}, err
	}
	if err := checkModes(spec, opts.Modes...); err != nil {
		return faults.Plan{}, err
	}
	return afzalPlanFor(spec, RunOptions{Seed: opts.BaseSeed, Noise: *opts.Noise, Metrics: opts.Metrics}, opts.Cache, 0.1)
}

// afzalPlanFor runs one uninstrumented reference job through cache and
// places a one-off delay on the middle rank at 30% of its wall time,
// sized at delayFrac of it.
func afzalPlanFor(spec Spec, o RunOptions, cache *runcache.Cache, delayFrac float64) (faults.Plan, error) {
	ref, drop := runJob(Job{Spec: spec, Opts: o}, cache, newPoolHooks(o.Metrics, nil))
	if drop != nil {
		return faults.Plan{}, fmt.Errorf("experiment %s: sizing reference: %s", spec.Name, drop.Err)
	}
	return faults.AfzalPlan(spec.Ranks, 0.3*ref.Wall, delayFrac*ref.Wall), nil
}

// RepStability returns the minimal pairwise rep-to-rep Jaccard of the
// mode's analyses under fault injection.
func (fs *FaultStudy) RepStability(mode core.Mode) float64 {
	return fs.Faulted.MinRepJaccard(mode)
}

// FaultShift returns J between the mode's mean faulted and mean clean
// profiles: 1.0 means the clock filtered the fault entirely.
func (fs *FaultStudy) FaultShift(mode core.Mode) float64 {
	clean, faulted := fs.Clean.meanMCMap(mode), fs.Faulted.meanMCMap(mode)
	if clean == nil || faulted == nil {
		return 0
	}
	return jaccard.Score(faulted, clean)
}

// WallDilation returns the relative wall-time cost of the faults on the
// mode's runs, in percent.
func (fs *FaultStudy) WallDilation(mode core.Mode) float64 {
	clean := fs.Clean.ModeWall(mode)
	if clean == 0 {
		return 0
	}
	return 100 * (fs.Faulted.ModeWall(mode) - clean) / clean
}

// FaultReport renders the fault-resilience table.  Reading guide: under a
// one-off delay, wall time typically dilates (the fault is physically
// real, though it can hide inside existing wait states when the victim
// rank has slack), but only the physical clocks should show
// J(faulted vs clean) visibly below 1 — tsc absorbs the delay into its timestamps and
// lt_hwctr absorbs the spin-wait instructions, while lt_1…lt_stmt filter
// the fault and keep rep-to-rep J at exactly 1.0.
func FaultReport(w io.Writer, fs *FaultStudy) {
	fmt.Fprintf(w, "FAULT RESILIENCE — %s\n", fs.Spec.Name)
	fmt.Fprintf(w, "plan: %s\n\n", fs.Plan.Describe())
	fmt.Fprintf(w, "%-10s %18s %22s %14s\n", "mode", "rep-to-rep J", "J(faulted vs clean)", "dilation %")
	for _, mode := range reportModes(fs.Faulted.Opts) {
		fmt.Fprintf(w, "%-10s %18.4f %22.4f %14.2f\n",
			mode, fs.RepStability(mode), fs.FaultShift(mode), fs.WallDilation(mode))
	}
	reportDropped(w, "clean", fs.Clean)
	reportDropped(w, "faulted", fs.Faulted)
}

// reportModes returns the modes FaultReport renders: a caller-supplied
// mode list keeps its explicit order, but when fill() installed the
// default list the copy is sorted, so the table's row order is stable
// across code versions even when cached and fresh studies mix in one
// report.
func reportModes(o StudyOptions) []core.Mode {
	modes := append([]core.Mode(nil), o.Modes...)
	if o.modesDefaulted {
		sort.Slice(modes, func(i, j int) bool { return modes[i] < modes[j] })
	}
	return modes
}

func reportDropped(w io.Writer, label string, st *Study) {
	for _, d := range st.Dropped {
		mode := string(d.Mode)
		if mode == "" {
			mode = "reference"
		}
		fmt.Fprintf(w, "dropped (%s): %s rep %d (seed %d): %s\n", label, mode, d.Rep, d.Seed, d.Err)
	}
}
