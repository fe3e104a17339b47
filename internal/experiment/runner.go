package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/faults"
	"repro/internal/jaccard"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/scalasca"
	"repro/internal/simmpi"
	"repro/internal/simomp"
	"repro/internal/trace"
	"repro/internal/tracecheck"
	"repro/internal/vtime"
)

// RunResult is the outcome of one simulated job.
type RunResult struct {
	Mode    core.Mode // "" for an uninstrumented reference run
	Wall    float64   // job virtual time, seconds
	Phases  map[string]float64
	Checks  []float64     // per-rank AppResult.Check
	FoM     float64       // summed figure of merit (0 if not reported)
	Trace   *trace.Trace  // nil for reference runs
	Profile *cube.Profile // nil unless analyzed
	// Applied is the injector's applied-fault log (nil without a plan):
	// what actually fired, at which virtual instant, against which target.
	Applied []faults.AppliedFault
}

// RunOptions bundles everything that can vary about one simulated job
// beyond its Spec.
type RunOptions struct {
	// Cfg is the measurement configuration; nil runs uninstrumented.
	Cfg *measure.Config
	// Seed seeds the noise model (and fault-plan jitter).
	Seed int64
	// Noise selects the noise environment; the zero value is noise-free.
	Noise noise.Params
	// Faults is an optional deterministic fault plan armed on the run.
	Faults *faults.Plan
	// Analyze runs the trace through the analyzer.
	Analyze bool
	// Metrics, when non-nil, receives observe-only counters from every
	// layer of the run (kernel, MPI runtime, fault injector).  It never
	// enters the run-cache key and cannot change any result — the
	// metrics-on/off golden test asserts byte-identical traces.
	Metrics *obs.Registry
	// Timeline, when non-nil, collects observe-only annotations for the
	// Perfetto export: resource-capacity samples and fault-injection
	// marks, all in virtual seconds.
	Timeline *obs.Timeline
}

// Run executes one configuration once.  mode "" runs uninstrumented;
// analyze controls whether the trace is run through the analyzer.
func Run(spec Spec, mode core.Mode, seed int64, np noise.Params, analyze bool) (*RunResult, error) {
	var cfg *measure.Config
	if mode != "" {
		c := measure.DefaultConfig(mode)
		cfg = &c
	}
	return RunWithOptions(spec, RunOptions{Cfg: cfg, Seed: seed, Noise: np, Analyze: analyze})
}

// RunWithOptions is the fully general single-run entry point: an
// explicit measurement configuration (nil runs uninstrumented; ablation
// studies vary its overhead model or piggyback behaviour) and an
// optional fault plan.  A timer mode core.New cannot build is rejected
// before the run starts.
func RunWithOptions(spec Spec, o RunOptions) (*RunResult, error) {
	if o.Cfg != nil {
		if err := checkModes(spec, o.Cfg.Mode); err != nil {
			return nil, err
		}
	}
	k := vtime.NewKernel()
	k.SetMetrics(vtime.NewMetrics(o.Metrics))
	if tl := o.Timeline; tl != nil {
		// Installed before machine.New so the t=0 registrations seed every
		// capacity track with its nominal value.
		k.SetCapacityObserver(func(now float64, res string, cap float64) {
			tl.AddSample(now, "capacity "+res, cap)
		})
	}
	m := machine.New(k, machine.Jureca(spec.Nodes))
	var place machine.Placement
	var err error
	if spec.OnePerDomain {
		place, err = machine.PlaceOnePerDomain(m, spec.Ranks, spec.Threads)
	} else {
		place, err = machine.PlaceBlock(m, spec.Ranks, spec.Threads)
	}
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", spec.Name, err)
	}
	var inj *faults.Injector
	if o.Faults != nil {
		plan := *o.Faults
		if plan.Seed == 0 {
			plan.Seed = o.Seed
		}
		inj, err = faults.Arm(k, m, place, plan)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", spec.Name, err)
		}
		inj.SetMetrics(faults.NewMetrics(o.Metrics))
		inj.SetTimeline(o.Timeline)
	}
	var nm *noise.Model
	if o.Noise != (noise.Params{}) {
		nm = noise.NewModel(o.Seed, o.Noise)
	}
	w := simmpi.NewWorld(k, m, place, simmpi.DefaultConfig(), simomp.DefaultCosts(), nm)
	w.SetMetrics(simmpi.NewMetrics(o.Metrics))
	var meas *measure.Measurement
	var mode core.Mode
	if o.Cfg != nil {
		mode = o.Cfg.Mode
		meas = measure.New(*o.Cfg)
	}
	out := &RunResult{
		Mode:   mode,
		Phases: make(map[string]float64),
		Checks: make([]float64, spec.Ranks),
	}
	phaseSums := make(map[string]float64)
	w.Launch(func(p *simmpi.Proc) {
		r := measure.NewRank(meas, p)
		r.Begin()
		res := spec.App(r)
		r.End()
		out.Checks[p.Rank] = res.Check
		out.FoM += res.FoM
		for name, v := range res.Phases {
			phaseSums[name] += v
		}
	})
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("experiment %s (%s): %w", spec.Name, mode, err)
	}
	out.Wall = k.Now()
	out.Applied = inj.Applied()
	for name, v := range phaseSums {
		out.Phases[name] = v / float64(spec.Ranks)
	}
	if meas != nil {
		out.Trace = meas.Trace
		if o.Analyze {
			prof, err := scalasca.Analyze(meas.Trace)
			if err != nil {
				return nil, fmt.Errorf("experiment %s (%s): analysis: %w", spec.Name, mode, err)
			}
			out.Profile = prof
		}
	}
	return out, nil
}

// StudyOptions controls a full per-configuration study.
type StudyOptions struct {
	// Reps is the number of repetitions for reference timings and for
	// the noise-sensitive modes (paper: 5).
	Reps int
	// Noise selects the noise environment (default noise.Cluster()).
	Noise *noise.Params
	// BaseSeed decorrelates repetitions.
	BaseSeed int64
	// Modes restricts the timer modes (default: all six).
	Modes []core.Mode
	// Faults optionally arms a deterministic fault plan on every
	// repetition (references included, so overheads stay comparable).
	Faults *faults.Plan
	// AnalyzeAll analyzes every repetition even for deterministic
	// modes — required by studies that measure rep-to-rep stability
	// under fault injection.
	AnalyzeAll bool
	// Workers caps the goroutines of the study's job pool; 0 uses
	// GOMAXPROCS.  The results are byte-identical for every worker
	// count — every job owns its kernel, machine and noise model, and
	// the pool places results back by grid index (see pool.go).
	Workers int
	// Cache, when non-nil, serves already-computed repetitions from a
	// content-addressed run cache and stores fresh first-attempt
	// results into it.
	Cache *runcache.Cache
	// VerifyTraces runs every completed repetition's trace through the
	// invariant checker (internal/tracecheck) on the pool worker that
	// produced or served it, recording one report per (mode, rep) in
	// Study.TraceChecks — the opt-in hook ltverify uses to assert
	// clock-condition compliance across a whole study grid.
	VerifyTraces bool
	// Metrics, when non-nil, aggregates observe-only counters across the
	// whole grid: pool accounting (jobs, retries, drops, cache traffic)
	// plus every job's simulation-internal counters.  Observe-only; see
	// RunOptions.Metrics.
	Metrics *obs.Registry
	// Progress, when non-nil, receives live job-grid completion events
	// (conventionally rendered to stderr by the cmd binaries, so stdout
	// artifacts are never perturbed).
	Progress *obs.Progress
	// KernelWorkers is read by nothing: every simulation runs on the
	// kernel's one sequential scheduler.
	//
	// Deprecated: parallelise a grid with Workers instead.
	KernelWorkers int

	// modesDefaulted records that fill() installed the default mode
	// list, so renderers may sort it for stable report ordering.
	modesDefaulted bool
}

func (o StudyOptions) fill() StudyOptions {
	if o.Reps == 0 {
		o.Reps = 5
	}
	if o.Noise == nil {
		p := noise.Cluster()
		o.Noise = &p
	}
	if len(o.Modes) == 0 {
		o.Modes = core.AllModes()
		o.modesDefaulted = true
	}
	return o
}

// Study is the complete result set for one configuration: repeated
// reference runs plus repeated measured runs per timer mode.  A study
// degrades gracefully: repetitions that fail (panic, deadlock) are
// retried once with a fresh seed and, if they fail again, recorded in
// Dropped instead of killing the whole study.
type Study struct {
	Spec    Spec
	Opts    StudyOptions
	Refs    []*RunResult
	Runs    map[core.Mode][]*RunResult
	Dropped []DroppedRep
	// TraceChecks holds one invariant report per completed (mode, rep)
	// when Opts.VerifyTraces is set, in mode-list then repetition order.
	TraceChecks []TraceCheckResult
}

// TraceCheckResult is one repetition's trace-invariant verification.
type TraceCheckResult struct {
	Mode core.Mode
	// Rep is the job's repetition number, as in DroppedRep; a dropped
	// repetition leaves a gap rather than renumbering the rest.
	Rep    int
	Report *tracecheck.Report
}

// DroppedRep records one repetition that failed both its primary run and
// its retry.
type DroppedRep struct {
	Mode core.Mode // "" for a reference repetition
	Rep  int
	Seed int64
	Err  string
}

// retrySeedOffset decorrelates a retried repetition from every planned
// seed of the study (BaseSeed .. BaseSeed+Reps).
const retrySeedOffset = 1_000_003

// checkReps rejects a negative repetition count before any job is
// queued; 0 still selects the entry point's default.
func checkReps(spec Spec, reps int) error {
	if reps < 0 {
		return fmt.Errorf("experiment %s: repetition count %d is negative", spec.Name, reps)
	}
	return nil
}

// checkModes rejects a timer mode core.New cannot build.  The studies
// call it before queueing jobs, so the pool never retries a job that
// cannot succeed.
func checkModes(spec Spec, modes ...core.Mode) error {
	for _, m := range modes {
		if err := core.CheckMode(m); err != nil {
			return fmt.Errorf("experiment %s: %w", spec.Name, err)
		}
	}
	return nil
}

// runIsolated executes one repetition and converts any panic escaping
// the runner — bad specs, analyzer bugs, kernel misuse outside actor
// context — into an error, so a single broken repetition cannot kill a
// multi-repetition study.
func runIsolated(spec Spec, o RunOptions) (res *RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s: repetition panicked: %v", spec.Name, r)
		}
	}()
	return RunWithOptions(spec, o)
}

// RunStudy executes the full protocol of §IV-B for one configuration:
// five uninstrumented reference runs, then instrumented runs with every
// clock.  The noise-sensitive modes (tsc, lt_hwctr) are measured and
// analyzed Reps times; the deterministic logical modes are timed Reps
// times (their wall time is still noisy) but analyzed once, since their
// traces repeat bit-for-bit (unless Opts.AnalyzeAll asks for more).
//
// The grid runs on Opts.Workers goroutines (0 = GOMAXPROCS); because
// every repetition is fully isolated and results are placed back by grid
// index, the Study is byte-identical for every worker count.  Failing
// repetitions are isolated: each is retried once with a fresh seed, then
// dropped and reported in Study.Dropped.  RunStudy returns an error only
// when the repetition count is negative, a mode is unknown or every
// single repetition failed.  Every instrumented run keeps its trace.
func RunStudy(spec Spec, opts StudyOptions) (*Study, error) {
	return runStudy(spec, opts, nil)
}

// runStudy is RunStudy, except that each pool worker drops a run's trace
// once it has derived the run's products, unless keep selects the job
// (nil keeps every trace; see runPool).
func runStudy(spec Spec, opts StudyOptions, keep func(Job) bool) (*Study, error) {
	opts = opts.fill()
	if err := checkReps(spec, opts.Reps); err != nil {
		return nil, err
	}
	if err := checkModes(spec, opts.Modes...); err != nil {
		return nil, err
	}
	st := &Study{Spec: spec, Opts: opts, Runs: make(map[core.Mode][]*RunResult)}
	jobs := studyJobs(spec, opts)
	var checks []*tracecheck.Report
	if opts.VerifyTraces {
		checks = make([]*tracecheck.Report, len(jobs))
	}
	opts.Progress.Start(len(jobs), spec.Name)
	results, drops := runPool(jobs, opts.Workers, opts.Cache, newPoolHooks(opts.Metrics, opts.Progress), checks, keep)
	opts.Progress.Finish()
	st.Dropped = flattenDrops(drops)
	for i, job := range jobs {
		res := results[i]
		if res == nil {
			continue
		}
		if job.Mode == "" {
			st.Refs = append(st.Refs, res)
		} else {
			st.Runs[job.Mode] = append(st.Runs[job.Mode], res)
		}
	}
	if st.completedReps() == 0 {
		return nil, fmt.Errorf("experiment %s: every repetition failed; first: %s",
			spec.Name, st.Dropped[0].Err)
	}
	// Slots follow the mode list, then repetition order, so the
	// reports never depend on pool scheduling.
	for i, rpt := range checks {
		if rpt != nil {
			st.TraceChecks = append(st.TraceChecks, TraceCheckResult{Mode: jobs[i].Mode, Rep: jobs[i].Rep, Report: rpt})
		}
	}
	return st, nil
}

func (st *Study) completedReps() int {
	n := len(st.Refs)
	for _, rs := range st.Runs {
		n += len(rs)
	}
	return n
}

// RefWall returns the mean reference wall time.
func (s *Study) RefWall() float64 { return meanWall(s.Refs) }

// ModeWall returns the mean wall time of a mode's runs.
func (s *Study) ModeWall(mode core.Mode) float64 { return meanWall(s.Runs[mode]) }

// Overhead returns the relative instrumentation overhead of a mode in
// percent, against the reference mean.
func (s *Study) Overhead(mode core.Mode) float64 {
	ref := s.RefWall()
	if ref == 0 {
		return 0
	}
	return 100 * (s.ModeWall(mode) - ref) / ref
}

// PhaseOverhead returns the overhead of one named phase in percent.
func (s *Study) PhaseOverhead(mode core.Mode, phase string) float64 {
	ref := meanPhase(s.Refs, phase)
	if ref == 0 {
		return 0
	}
	return 100 * (meanPhase(s.Runs[mode], phase) - ref) / ref
}

// MeanProfile returns the mode's analysis profile averaged over the
// analyzed repetitions.
func (s *Study) MeanProfile(mode core.Mode) *cube.Profile {
	var ps []*cube.Profile
	for _, r := range s.Runs[mode] {
		if r.Profile != nil {
			ps = append(ps, r.Profile)
		}
	}
	return cube.Mean(ps)
}

// JaccardVsTsc returns J_(M,C) between a logical mode's mean profile and
// the tsc mean profile (paper Figs. 3 and 4).
func (s *Study) JaccardVsTsc(mode core.Mode) float64 {
	tsc := s.MeanProfile(core.ModeTSC)
	other := s.MeanProfile(mode)
	if tsc == nil || other == nil {
		return 0
	}
	return jaccard.Score(other.MCMap(), tsc.MCMap())
}

// JaccardCallMap returns J_C^metric: the similarity of call-path
// contributions to one metric between a mode and tsc (the per-metric
// scores annotated on the paper's Figs. 5, 6 and 9).
func (s *Study) JaccardCallMap(mode core.Mode, metric string) float64 {
	tsc := s.MeanProfile(core.ModeTSC)
	other := s.MeanProfile(mode)
	if tsc == nil || other == nil {
		return 0
	}
	return jaccard.Score(other.CallMap(metric), tsc.CallMap(metric))
}

// MinRepJaccard returns the minimal pairwise J_(M,C) between a mode's
// analyzed repetitions — the run-to-run stability of the analysis.
func (s *Study) MinRepJaccard(mode core.Mode) float64 {
	var ms []map[string]float64
	for _, r := range s.Runs[mode] {
		if r.Profile != nil {
			ms = append(ms, r.Profile.MCMap())
		}
	}
	return jaccard.MinPairwise(ms)
}

func meanWall(rs []*RunResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	var t float64
	for _, r := range rs {
		t += r.Wall
	}
	return t / float64(len(rs))
}

func meanPhase(rs []*RunResult, phase string) float64 {
	if len(rs) == 0 {
		return 0
	}
	var t float64
	for _, r := range rs {
		t += r.Phases[phase]
	}
	return t / float64(len(rs))
}
