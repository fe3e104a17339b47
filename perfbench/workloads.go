package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/noise"
	"repro/internal/runcache"
)

const (
	// poolWorkers is the study pool width of every workload (the -j of
	// the study tools), kernelWorkers the kernel's: the sequential kernel.
	poolWorkers   = 2
	kernelWorkers = 1
	// studyReps is the repetition count of the study grids.
	studyReps = 1
	// plansPerSpec is how many one-off-delay plans the propagation
	// workload draws for each pattern.
	plansPerSpec = 2
)

// workload is one study-level job grid the benchmark measures.
type workload struct {
	name string
	// golden keys the committed digest of the full-size grid at the
	// default seed; report-cold and report-warm share one.
	golden string
	setup  func(env *runEnv) (grid, error)
}

// grid is a workload made ready by set-up: inputs drawn from the seed,
// and any cache it reads filled.
type grid interface {
	// pass runs the grid once through the public entry points, with m
	// bracketing the measured part.
	pass(m *meter) (outcome, error)
	// replay runs the same grid calling each layer directly inside spans
	// of led, on the given number of pool workers.
	replay(led *ledger, workers int) (outcome, error)
	// expected returns the units every pass must reproduce, or nil when
	// the first pass sets the reference.
	expected() ([]unit, error)
	// close removes what set-up left on disk.
	close()
}

var workloads = []workload{
	{
		name:   "verify",
		golden: "verify",
		setup:  setupVerify,
	},
	{
		name:   "report-cold",
		golden: "report",
		setup:  func(env *runEnv) (grid, error) { return setupReport(env, false) },
	},
	{
		name:   "report-warm",
		golden: "report",
		setup:  func(env *runEnv) (grid, error) { return setupReport(env, true) },
	},
	{
		name:   "propagation",
		golden: "propagation",
		setup:  setupPropagation,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runEnv is what set-up draws on: the seed, the grid size, where run
// caches may live, and whether the run is traced.
type runEnv struct {
	seed   int64
	tiny   bool
	traced bool
	dir    string
	dirs   int
}

// freshDir names a directory under the run's scratch directory that no
// earlier call returned.
func (e *runEnv) freshDir(prefix string) string {
	e.dirs++
	return filepath.Join(e.dir, prefix+"-"+strconv.Itoa(e.dirs))
}

// meter brackets the measured part of a pass: host time net of steal,
// the heap allocations made meanwhile and the peak RSS.  Every pass starts
// from a collected heap and its own peak-RSS count, so passes are alike
// and the peak is the pass's own.
type meter struct {
	wall, raw     time.Duration
	bytes, allocs uint64
	peakMB        float64
	sw            stopwatch
	ms            runtime.MemStats
}

func (m *meter) start() {
	resetPeakRSS()
	runtime.ReadMemStats(&m.ms)
	m.sw = startStopwatch()
}

func (m *meter) stop() {
	m.wall, m.raw = m.sw.elapsed()
	b, a := m.ms.TotalAlloc, m.ms.Mallocs
	runtime.ReadMemStats(&m.ms)
	m.bytes, m.allocs = m.ms.TotalAlloc-b, m.ms.Mallocs-a
	m.peakMB = peakRSSMB()
}

// warmUp runs each spec once uninstrumented under the studies' noise, so
// lazy set-up (heap growth, first-touch pages) is paid before the
// measured passes.
func warmUp(specs []experiment.Spec, seed int64) error {
	for _, spec := range specs {
		if _, err := experiment.RunWithOptions(spec, experiment.RunOptions{Seed: seed, Noise: noise.Cluster()}); err != nil {
			return fmt.Errorf("warm-up %s: %w", spec.Name, err)
		}
	}
	return nil
}

// verifyGrid is ltverify's study grid.
type verifyGrid struct {
	specs []experiment.Spec
	opts  experiment.StudyOptions
}

func setupVerify(env *runEnv) (grid, error) {
	names := []string{"MiniFE-1", "MiniFE-2", "LULESH-1", "LULESH-2", "TeaLeaf-2", "TeaLeaf-4"}
	if env.tiny {
		names = names[:1]
	}
	g := &verifyGrid{opts: experiment.StudyOptions{
		Reps: studyReps, BaseSeed: env.seed, Workers: poolWorkers, KernelWorkers: kernelWorkers, VerifyTraces: true,
	}}
	for _, name := range names {
		spec, err := experiment.SpecByName(name, experiment.Options{Quick: true})
		if err != nil {
			return nil, err
		}
		g.specs = append(g.specs, spec)
	}
	return g, warmUp(g.specs, env.seed)
}

func (g *verifyGrid) pass(m *meter) (outcome, error) {
	studies := make([]*experiment.Study, len(g.specs))
	errs := make([]error, len(g.specs))
	m.start()
	for i, spec := range g.specs {
		studies[i], errs[i] = experiment.RunStudy(spec, g.opts)
	}
	m.stop()
	var o outcome
	for i, st := range studies {
		if errs[i] != nil {
			o.add(failedStudy(g.specs[i].Name, studyJobCount(g.opts), errs[i]))
			continue
		}
		o.add(studyOutcome(st))
	}
	return o, nil
}

func (g *verifyGrid) replay(led *ledger, workers int) (outcome, error) {
	r := &replayer{led: led, workers: workers}
	root := led.begin("pass", -1)
	studies := make([]*experiment.Study, len(g.specs))
	for i, spec := range g.specs {
		studies[i] = r.study(root, spec, g.opts, true)
	}
	led.end(root, 0)
	r.finish()
	var o outcome
	for _, st := range studies {
		o.add(studyOutcome(st))
	}
	return o, nil
}

func (g *verifyGrid) expected() ([]unit, error) { return nil, nil }
func (g *verifyGrid) close()                    {}

// studyJobCount is the size of one study's job grid.
func studyJobCount(o experiment.StudyOptions) int {
	o = filledStudyOptions(o)
	return o.Reps * (1 + len(o.Modes))
}

// reportGrid is the paper regeneration: FullReport over the eight paper
// specs, cold (each pass into a fresh empty cache) or warm (served from
// the cache set-up filled).
type reportGrid struct {
	env      *runEnv
	warm     bool
	specs    []experiment.Spec
	specOpts experiment.Options
	opts     experiment.StudyOptions
	// cache and want are a warm grid's filled cache and the fresh results
	// that filled it.
	cache *runcache.Cache
	want  []unit
	// firstServed is a warm grid's digest of what its cache serves.
	firstServed *outcome
}

func setupReport(env *runEnv, warm bool) (grid, error) {
	g := &reportGrid{
		env: env, warm: warm, specOpts: experiment.Options{Quick: env.tiny},
		opts: experiment.StudyOptions{
			Reps: studyReps, BaseSeed: env.seed, Workers: poolWorkers, KernelWorkers: kernelWorkers,
		},
	}
	g.specs = experiment.Specs(g.specOpts)
	if !warm {
		return g, warmUp(g.specs, env.seed)
	}
	cache, err := runcache.Open(env.freshDir("warm"))
	if err != nil {
		return nil, err
	}
	g.cache = cache
	opts := g.opts
	opts.Cache = cache
	var fresh outcome
	for _, spec := range g.specs {
		st, err := experiment.RunStudy(spec, opts)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("filling the cache: %w", err)
		}
		fresh.add(studyOutcome(st))
	}
	g.want = fresh.units
	if env.traced {
		// The replay keys its own entries; fill those too.
		(&replayer{cache: cache, workers: poolWorkers}).reportStudies(-1, g.specs, g.opts)
	}
	return g, nil
}

func (g *reportGrid) pass(m *meter) (outcome, error) {
	cache := g.cache
	if !g.warm {
		dir := g.env.freshDir("cold")
		defer os.RemoveAll(dir)
		m.start()
		c, err := runcache.Open(dir)
		if err != nil {
			return outcome{}, err
		}
		cache = c
	} else {
		m.start()
	}
	opts := g.opts
	opts.Cache = cache
	_, missed := cache.Stats()
	err := experiment.FullReport(io.Discard, opts, g.specOpts)
	m.stop()
	if err != nil {
		var o outcome
		o.add(failedStudy("FullReport", len(g.specs)*studyJobCount(g.opts), err))
		return o, nil
	}
	if !g.warm {
		return g.served(cache, opts), nil
	}
	// A warm pass reads a cache nothing writes to: once its contents are
	// digested, a pass that served every job served those results.
	if g.firstServed == nil {
		o := g.served(cache, opts)
		g.firstServed = &o
	}
	o := *g.firstServed
	_, after := cache.Stats()
	o.misses += int(after - missed)
	return o, nil
}

// served checks a report pass through what its cache now serves: every
// job of the grid must be a hit, and the hits are digested.
func (g *reportGrid) served(cache *runcache.Cache, opts experiment.StudyOptions) outcome {
	_, missed := cache.Stats()
	var o outcome
	for _, spec := range g.specs {
		st, err := experiment.RunStudy(spec, opts)
		if err != nil {
			o.add(failedStudy(spec.Name, studyJobCount(opts), err))
			continue
		}
		o.add(studyOutcome(st))
	}
	_, after := cache.Stats()
	o.misses = int(after - missed)
	return o
}

func (g *reportGrid) replay(led *ledger, workers int) (outcome, error) {
	r := &replayer{led: led, cache: g.cache, workers: workers}
	if !g.warm {
		dir := g.env.freshDir("cold")
		defer os.RemoveAll(dir)
		c, err := runcache.Open(dir)
		if err != nil {
			return outcome{}, err
		}
		r.cache = c
	}
	root := led.begin("pass", -1)
	studies := r.reportStudies(root, g.specs, g.opts)
	led.end(root, 0)
	r.finish()
	if !g.warm && led != nil {
		led.add("runcache.disk_bytes", dirBytes(r.cache.Dir()))
	}
	var o outcome
	for _, st := range studies {
		o.add(studyOutcome(st))
	}
	if g.warm {
		o.misses = int(r.misses.Load())
	}
	return o, nil
}

// reportStudies replays FullReport: every paper spec's study, then each
// table and figure renderer in the report's order.  It returns the
// studies in spec order.
func (r *replayer) reportStudies(parent int, specs []experiment.Spec, opts experiment.StudyOptions) []*experiment.Study {
	byName := make(map[string]*experiment.Study)
	var studies []*experiment.Study
	for _, spec := range specs {
		st := r.study(parent, spec, opts, false)
		byName[spec.Name] = st
		studies = append(studies, st)
	}
	for _, rd := range renderers {
		r.led.do("report."+rd.name, parent, func() int64 {
			rd.render(io.Discard, byName)
			return 0
		})
	}
	return studies
}

// renderers are FullReport's tables and figures in its order.
var renderers = []struct {
	name   string
	render func(w io.Writer, s map[string]*experiment.Study)
}{
	{"table1", func(w io.Writer, s map[string]*experiment.Study) {
		experiment.TableI(w, s["MiniFE-2"], s["LULESH-1"], s["TeaLeaf-2"])
	}},
	{"table2", func(w io.Writer, s map[string]*experiment.Study) {
		experiment.TableII(w, []*experiment.Study{s["TeaLeaf-1"], s["TeaLeaf-2"], s["TeaLeaf-3"], s["TeaLeaf-4"]})
	}},
	{"fig2", func(w io.Writer, s map[string]*experiment.Study) { experiment.Fig2(w, s["MiniFE-2"]) }},
	{"fig3", func(w io.Writer, s map[string]*experiment.Study) {
		experiment.FigJaccard(w, "FIG 3 (MiniFE, LULESH)", []*experiment.Study{s["MiniFE-1"], s["MiniFE-2"], s["LULESH-1"], s["LULESH-2"]})
	}},
	{"fig4", func(w io.Writer, s map[string]*experiment.Study) {
		experiment.FigJaccard(w, "FIG 4 (TeaLeaf)", []*experiment.Study{s["TeaLeaf-1"], s["TeaLeaf-2"], s["TeaLeaf-3"], s["TeaLeaf-4"]})
	}},
	{"fig5", func(w io.Writer, s map[string]*experiment.Study) { experiment.Fig5(w, s["MiniFE-1"], s["MiniFE-2"]) }},
	{"fig6", func(w io.Writer, s map[string]*experiment.Study) { experiment.Fig6(w, s["MiniFE-1"], s["MiniFE-2"]) }},
	{"fig7", func(w io.Writer, s map[string]*experiment.Study) { experiment.Fig7(w, s["MiniFE-2"]) }},
	{"fig8", func(w io.Writer, s map[string]*experiment.Study) { experiment.Fig8(w, s["LULESH-1"]) }},
	{"fig9", func(w io.Writer, s map[string]*experiment.Study) { experiment.Fig9(w, s["LULESH-1"]) }},
	{"hybrid", func(w io.Writer, s map[string]*experiment.Study) {
		experiment.HybridSection(w, s["MiniFE-1"], s["LULESH-2"])
	}},
	{"critpath", func(w io.Writer, s map[string]*experiment.Study) { experiment.CritPathSection(w, s["LULESH-1"]) }},
}

func (g *reportGrid) expected() ([]unit, error) { return g.want, nil }

func (g *reportGrid) close() {
	if g.cache != nil {
		os.RemoveAll(g.cache.Dir())
	}
}

// dirBytes sums the sizes of the regular files under dir.  Unreadable
// entries are skipped: the callback returns no error, so neither does
// WalkDir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// propGrid is the delay-propagation workload: for each pattern spec,
// one-off-delay plans drawn from the seed and scaled from a reference
// run made in set-up.
type propGrid struct {
	seed    int64
	studies []propStudy
	// want and events come from one untraced replay of the grid, made
	// the first time they are needed: the entry point's JSON must equal
	// the layer-by-layer replay's.
	want   []unit
	events int64
}

type propStudy struct {
	spec experiment.Spec
	plan faults.Plan
	// refBusy is the host time of the spec's reference run in set-up.
	refBusy time.Duration
}

func setupPropagation(env *runEnv) (grid, error) {
	specs := experiment.PatternSpecs(experiment.Options{Quick: env.tiny})
	if env.tiny {
		specs = specs[:1]
	}
	g := &propGrid{seed: env.seed}
	rng := rand.New(rand.NewSource(env.seed))
	for _, spec := range specs {
		t0 := hostNow()
		ref, err := experiment.RunWithOptions(spec, experiment.RunOptions{Seed: env.seed})
		if err != nil {
			return nil, fmt.Errorf("reference run %s: %w", spec.Name, err)
		}
		busy := hostNow().Sub(t0)
		for k := 0; k < plansPerSpec; k++ {
			plan := faults.Plan{Faults: []faults.Fault{{
				Kind:  faults.OneOffDelay,
				Rank:  rng.Intn(spec.Ranks),
				At:    (0.2 + 0.4*rng.Float64()) * ref.Wall,
				Delay: (0.02 + 0.06*rng.Float64()) * ref.Wall,
			}}}
			g.studies = append(g.studies, propStudy{spec: spec, plan: plan, refBusy: busy})
		}
	}
	return g, nil
}

func (g *propGrid) pass(m *meter) (outcome, error) {
	if _, err := g.expected(); err != nil {
		return outcome{}, err
	}
	studies := make([]*experiment.PropagationStudy, len(g.studies))
	errs := make([]error, len(g.studies))
	opts := experiment.PropagationOptions{Seed: g.seed, Workers: poolWorkers, KernelWorkers: kernelWorkers}
	m.start()
	for i, ps := range g.studies {
		studies[i], errs[i] = experiment.RunPropagationStudy(ps.spec, opts, ps.plan)
	}
	m.stop()
	o := outcome{events: g.events}
	for i, st := range studies {
		if err := addPropStudy(&o, g.studies[i].spec.Name, st, errs[i]); err != nil {
			return outcome{}, err
		}
	}
	return o, nil
}

// addPropStudy checks one propagation study into o: its JSON is the unit,
// its dropped runs count as dropped jobs.
func addPropStudy(o *outcome, name string, st *experiment.PropagationStudy, err error) error {
	jobs := 2 * len(core.AllModes())
	if err != nil {
		o.add(failedStudy(name, jobs, err))
		return nil
	}
	u, err := jsonUnit(st, jobs)
	if err != nil {
		return err
	}
	o.units = append(o.units, u)
	o.jobs += jobs
	o.dropped += len(st.Dropped)
	return nil
}

func (g *propGrid) replay(led *ledger, workers int) (outcome, error) {
	r := &replayer{led: led, workers: workers}
	for _, ps := range g.studies {
		led.setRef(runKey(ps.spec, g.seed), ps.refBusy)
	}
	root := led.begin("pass", -1)
	studies := make([]*experiment.PropagationStudy, len(g.studies))
	errs := make([]error, len(g.studies))
	for i, ps := range g.studies {
		studies[i], errs[i] = r.propagationStudy(root, ps.spec, g.seed, ps.plan)
	}
	led.end(root, 0)
	r.finish()
	o := outcome{events: r.recorded.Load()}
	for i, st := range studies {
		if err := addPropStudy(&o, g.studies[i].spec.Name, st, errs[i]); err != nil {
			return outcome{}, err
		}
	}
	return o, nil
}

func (g *propGrid) expected() ([]unit, error) {
	if g.want == nil {
		o, err := g.replay(nil, poolWorkers)
		if err != nil {
			return nil, err
		}
		g.want, g.events = o.units, o.events
	}
	return g.want, nil
}

func (g *propGrid) close() {}
