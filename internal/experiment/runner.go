package experiment

import (
	"fmt"
	"slices"
	"strings"
	"sync"

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

	// critPath, or critPathErr when the analysis failed, is the run's
	// critical path as its pool worker derived it (Job.CritPath).
	critPath    *scalasca.CritPath
	critPathErr error
}

// RunOptions bundles everything that can vary about one simulated job
// beyond its Spec.
type RunOptions struct {
	// Cfg is the measurement configuration; nil runs uninstrumented.
	Cfg *measure.Config
	// Seed seeds the noise model.
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
		inj, err = faults.Arm(k, m, place, *o.Faults)
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
	// faults, which RunFaultStudy sets on its faulted study, arms a
	// fault plan on every repetition (references included, so overheads
	// stay comparable).
	faults *faults.Plan
	// analyzeAll, which RunFaultStudy sets, analyzes every repetition
	// even for deterministic modes: the fault study measures rep-to-rep
	// stability under injection.
	analyzeAll bool
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
//
// A study is read-only once it is returned: MeanProfile computes each
// mode's mean once, and JaccardVsTsc each mean's (metric, call path)
// map once, so Runs must not change afterwards.
type Study struct {
	Spec    Spec
	Opts    StudyOptions
	Refs    []*RunResult
	Runs    map[core.Mode][]*RunResult
	Dropped []DroppedRep
	// TraceChecks holds one invariant report per completed (mode, rep)
	// when Opts.VerifyTraces is set, in mode-list then repetition order.
	TraceChecks []TraceCheckResult

	meanMu sync.Mutex
	means  map[core.Mode]*cube.Profile      // MeanProfile's results
	mcMaps map[core.Mode]map[string]float64 // meanMCMap's results
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
// traces repeat bit-for-bit.
//
// The grid runs on Opts.Workers goroutines (0 = GOMAXPROCS); because
// every repetition is fully isolated and results are placed back by grid
// index, the Study is byte-identical for every worker count.  Failing
// repetitions are isolated: each is retried once with a fresh seed, then
// dropped and reported in Study.Dropped.  RunStudy returns an error only
// when the repetition count is negative, a mode is unknown or every
// single repetition failed.  It is RunStudies over one spec, except that
// every instrumented run keeps its trace.
func RunStudy(spec Spec, opts StudyOptions) (*Study, error) {
	sts, errs := runGrid([]gridStudy{{spec: spec, opts: opts, keepTraces: true}})
	return sts[0], errs[0]
}

// RunStudies runs one study per spec, all with the same options, as one
// grid: every study's jobs go into one pool, so no worker idles at a
// study boundary.  Each study equals RunStudy's for its spec, except
// that no run keeps its trace: each worker derives a run's products (the
// profile, and the trace check with Opts.VerifyTraces), then drops it.
// The options are checked for every spec before any job runs.  When a
// check fails, or every repetition of a study failed, RunStudies returns
// that error, the first in spec order.
func RunStudies(specs []Spec, opts StudyOptions) ([]*Study, error) {
	grid := make([]gridStudy, len(specs))
	for i, spec := range specs {
		grid[i] = gridStudy{spec: spec, opts: opts}
	}
	return firstErr(runGrid(grid))
}

// gridStudy is one study of a grid: its spec and options, and what its
// jobs hand back beyond the study's own products.
type gridStudy struct {
	spec Spec
	opts StudyOptions
	// critPath derives the critical path of the tsc repetition 0 on its
	// worker (CritPathSection prints it).
	critPath bool
	// keepTraces keeps every instrumented run's trace.
	keepTraces bool
}

// runGrid runs every study of the grid in one pool and splits the
// results back per study.  Each study's jobs are enumerated by studyJobs,
// unchanged, so the cache keys do not depend on the grid.  The pool's
// settings (Workers, Cache, Metrics, Progress) are the first study's.
// It returns one study and one error per grid entry: when an option
// check fails, nothing runs and that entry's error is set; otherwise an
// entry's error is set, and its study nil, when every repetition of the
// study failed.
func runGrid(grid []gridStudy) ([]*Study, []error) {
	sts := make([]*Study, len(grid))
	errs := make([]error, len(grid))
	if len(grid) == 0 {
		return sts, errs
	}
	for i := range grid {
		g := &grid[i]
		g.opts = g.opts.fill()
		if err := checkReps(g.spec, g.opts.Reps); err != nil {
			errs[i] = err
			return sts, errs
		}
		if err := checkModes(g.spec, g.opts.Modes...); err != nil {
			errs[i] = err
			return sts, errs
		}
	}
	var jobs []Job
	first := make([]int, len(grid)+1) // study i's jobs are jobs[first[i]:first[i+1]]
	for i, g := range grid {
		first[i] = len(jobs)
		for _, job := range studyJobs(g.spec, g.opts) {
			job.KeepTrace = g.keepTraces
			job.CritPath = g.critPath && job.Mode == core.ModeTSC && job.Rep == 0
			jobs = append(jobs, job)
		}
	}
	first[len(grid)] = len(jobs)
	pool := grid[0].opts
	pool.Progress.Start(len(jobs), gridLabel(grid))
	results, drops, checks := runPool(jobs, pool.Workers, pool.Cache, newPoolHooks(pool.Metrics, pool.Progress))
	pool.Progress.Finish()
	for i, g := range grid {
		lo, hi := first[i], first[i+1]
		st := &Study{Spec: g.spec, Opts: g.opts, Runs: make(map[core.Mode][]*RunResult)}
		st.Dropped = flattenDrops(drops[lo:hi])
		for j, job := range jobs[lo:hi] {
			res := results[lo+j]
			if res == nil {
				continue
			}
			if job.Mode == "" {
				st.Refs = append(st.Refs, res)
			} else {
				st.Runs[job.Mode] = append(st.Runs[job.Mode], res)
			}
			// Slots follow the mode list, then repetition order, so
			// the reports never depend on pool scheduling.
			if rpt := checks[lo+j]; rpt != nil {
				st.TraceChecks = append(st.TraceChecks, TraceCheckResult{Mode: job.Mode, Rep: job.Rep, Report: rpt})
			}
		}
		if st.completedReps() == 0 {
			errs[i] = fmt.Errorf("experiment %s: every repetition failed; first: %s",
				g.spec.Name, st.Dropped[0].Err)
			continue
		}
		sts[i] = st
	}
	return sts, errs
}

// gridLabel names a grid in progress reports: its distinct spec names.
func gridLabel(grid []gridStudy) string {
	var names []string
	for _, g := range grid {
		if !slices.Contains(names, g.spec.Name) {
			names = append(names, g.spec.Name)
		}
	}
	return strings.Join(names, " ")
}

// firstErr returns the studies, or the first error in grid order.
func firstErr(sts []*Study, errs []error) ([]*Study, error) {
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sts, nil
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
// analyzed repetitions.  It computes each mode's mean once and returns
// that same profile afterwards, so callers must not mutate it.
func (s *Study) MeanProfile(mode core.Mode) *cube.Profile {
	s.meanMu.Lock()
	defer s.meanMu.Unlock()
	if p, ok := s.means[mode]; ok {
		return p
	}
	var ps []*cube.Profile
	for _, r := range s.Runs[mode] {
		if r.Profile != nil {
			ps = append(ps, r.Profile)
		}
	}
	p := cube.Mean(ps)
	if s.means == nil {
		s.means = make(map[core.Mode]*cube.Profile)
	}
	s.means[mode] = p
	return p
}

// meanMCMap returns the (metric, call path) map of the mode's mean
// profile, nil when the mode has none.  Like MeanProfile it computes
// each mode's map once, so callers must not mutate it.
func (s *Study) meanMCMap(mode core.Mode) map[string]float64 {
	p := s.MeanProfile(mode)
	if p == nil {
		return nil
	}
	s.meanMu.Lock()
	defer s.meanMu.Unlock()
	if m, ok := s.mcMaps[mode]; ok {
		return m
	}
	m := p.MCMap()
	if s.mcMaps == nil {
		s.mcMaps = make(map[core.Mode]map[string]float64)
	}
	s.mcMaps[mode] = m
	return m
}

// JaccardVsTsc returns J_(M,C) between a logical mode's mean profile and
// the tsc mean profile (paper Figs. 3 and 4).
func (s *Study) JaccardVsTsc(mode core.Mode) float64 {
	tsc := s.meanMCMap(core.ModeTSC)
	other := s.meanMCMap(mode)
	if tsc == nil || other == nil {
		return 0
	}
	return jaccard.Score(other, tsc)
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
