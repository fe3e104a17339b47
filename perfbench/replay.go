package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/propagation"
	"repro/internal/runcache"
	"repro/internal/scalasca"
	"repro/internal/tracecheck"
)

// The traced replay.  It re-enacts the job grids that RunStudy and
// RunPropagationStudy run — same enumeration order, seeds, analyze flags,
// retry rule and worker count — but calls each layer's public function
// itself, inside a span: experiment.RunWithOptions with and without a
// measurement configuration, scalasca.Analyze, tracecheck.Verify,
// runcache.Get/Put and propagation.Analyze.  Its outputs go through the
// same digest as the untraced passes, so a replay that drifted from the
// entry points it mirrors fails the output check.

// retrySeedOffset mirrors the pool's retry rule: a failed job is retried
// once with its seed shifted by this much.
const retrySeedOffset = 1_000_003

// ledgerCacheVersion salts the replay's own cache keys.  The replay keys
// entries itself, so they never collide with entries the study entry
// points write into the same directory.
const ledgerCacheVersion = "perfbench-ledger-1"

// job is one slot of a replayed grid.
type job struct {
	mode    core.Mode
	rep     int
	analyze bool
	// opts are the run options; Analyze stays false because the replay
	// calls the analyzer itself, in its own span.
	opts experiment.RunOptions
}

// replayer runs replayed grids on a pool of workers, recording into led
// (nil records nothing) and reading or filling cache (nil bypasses it).
type replayer struct {
	led     *ledger
	cache   *runcache.Cache
	workers int
	// The pool's outcomes and the trace events the simulations recorded.
	hits, misses, retried, dropped, recorded atomic.Int64
}

// finish hands the replay's counts to its ledger.
func (r *replayer) finish() {
	r.led.add("runcache.hits", r.hits.Load())
	r.led.add("runcache.misses", r.misses.Load())
	r.led.add("pool.retried", r.retried.Load())
	r.led.add("pool.dropped", r.dropped.Load())
}

// studyJobs enumerates RunStudy's grid: reference repetitions, then every
// mode's repetitions in mode order, seeds BaseSeed+rep, analysis on
// repetition 0 or on noisy modes.
func (r *replayer) studyJobs(opts experiment.StudyOptions) []job {
	var jobs []job
	for rep := 0; rep < opts.Reps; rep++ {
		jobs = append(jobs, job{rep: rep, opts: experiment.RunOptions{
			Seed: opts.BaseSeed + int64(rep), Noise: *opts.Noise, Metrics: r.led.registry(),
		}})
	}
	for _, mode := range opts.Modes {
		cfg := measure.DefaultConfig(mode)
		for rep := 0; rep < opts.Reps; rep++ {
			jobs = append(jobs, job{
				mode: mode, rep: rep, analyze: rep == 0 || !mode.Deterministic(),
				opts: experiment.RunOptions{
					Cfg: &cfg, Seed: opts.BaseSeed + int64(rep), Noise: *opts.Noise, Metrics: r.led.registry(),
				},
			})
		}
	}
	return jobs
}

// pool runs n jobs on min(workers, n) goroutines, closed-loop: a worker
// takes the next job only when its previous one is done.
func (r *replayer) pool(parent, n int, run func(i, parent int)) {
	workers := max(1, min(r.workers, n))
	id := r.led.begin("pool", parent)
	r.led.annotate(id, "", workers)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i, id)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	r.led.end(id, 0)
}

// runKey pairs an instrumented run with its same-seed reference run.
func runKey(spec experiment.Spec, seed int64) string {
	return fmt.Sprintf("%s|%d", spec.Name, seed)
}

// simulate runs one job once: the simulation in an experiment span, then
// the analyzer in its own span when the job asks for a profile.
func (r *replayer) simulate(parent int, spec experiment.Spec, j job, o experiment.RunOptions) (res *experiment.RunResult, err error) {
	name := "experiment.run"
	if o.Cfg == nil {
		name = "experiment.ref_run"
	}
	id := r.led.begin(name, parent)
	r.led.annotate(id, runKey(spec, o.Seed), 0)
	res, err = runSafe(spec, o)
	r.led.end(id, events(res))
	r.recorded.Add(events(res))
	if err != nil || !j.analyze {
		return res, err
	}
	r.led.do("scalasca.analyze", parent, func() int64 {
		res.Profile, err = scalasca.Analyze(res.Trace)
		return events(res)
	})
	if err != nil {
		return nil, fmt.Errorf("experiment %s (%s): analysis: %w", spec.Name, o.Cfg.Mode, err)
	}
	return res, nil
}

// runSafe is RunWithOptions with a panic turned into an error, like the
// pool's isolation of a broken repetition.
func runSafe(spec experiment.Spec, o experiment.RunOptions) (res *experiment.RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("experiment %s: repetition panicked: %v", spec.Name, p)
		}
	}()
	return experiment.RunWithOptions(spec, o)
}

func events(res *experiment.RunResult) int64 {
	if res == nil || res.Trace == nil {
		return 0
	}
	return int64(res.Trace.NumEvents())
}

// job runs one grid slot with the pool's degradation path: serve it from
// the cache, else simulate, cache a first-attempt success, retry a
// failure once with a shifted seed, and drop it if the retry fails too.
func (r *replayer) job(parent int, spec experiment.Spec, j job) (*experiment.RunResult, *experiment.DroppedRep) {
	id := r.led.begin("job", parent)
	defer r.led.end(id, 0)
	if r.cache != nil {
		key := cacheKey(spec, j)
		var e *runcache.Entry
		var ok bool
		r.led.do("runcache.get", id, func() int64 {
			if e, ok = r.cache.Get(key); ok && e.Trace != nil {
				return int64(e.Trace.NumEvents())
			}
			return 0
		})
		if ok {
			r.hits.Add(1)
			return fromEntry(e), nil
		}
		r.misses.Add(1)
		res, err := r.simulate(id, spec, j, j.opts)
		if err == nil {
			r.led.do("runcache.put", id, func() int64 {
				// A failed Put only costs a later run a re-simulation.
				_ = r.cache.Put(key, toEntry(res))
				return events(res)
			})
			return res, nil
		}
		return r.retry(id, spec, j, err)
	}
	res, err := r.simulate(id, spec, j, j.opts)
	if err == nil {
		return res, nil
	}
	return r.retry(id, spec, j, err)
}

func (r *replayer) retry(parent int, spec experiment.Spec, j job, err error) (*experiment.RunResult, *experiment.DroppedRep) {
	r.retried.Add(1)
	o := j.opts
	o.Seed += retrySeedOffset
	res, err2 := r.simulate(parent, spec, j, o)
	if err2 == nil {
		return res, nil
	}
	r.dropped.Add(1)
	return nil, &experiment.DroppedRep{
		Mode: j.mode, Rep: j.rep, Seed: j.opts.Seed,
		Err: fmt.Sprintf("%v (retry with seed %d: %v)", err, o.Seed, err2),
	}
}

// cacheKey addresses one replayed job in the cache, from the same inputs
// the study entry points key on, under the replay's own version salt.
func cacheKey(spec experiment.Spec, j job) runcache.Key {
	k := runcache.Key{
		Spec: fmt.Sprintf("%s|%dx%dx%d|oneper=%t|%s",
			spec.Name, spec.Ranks, spec.Threads, spec.Nodes, spec.OnePerDomain, spec.Description),
		Seed:    j.opts.Seed,
		Noise:   fmt.Sprintf("%+v", j.opts.Noise),
		Analyze: j.analyze,
		Version: ledgerCacheVersion,
	}
	if j.opts.Cfg != nil {
		k.Mode = string(j.opts.Cfg.Mode)
		k.Config = fmt.Sprintf("%+v", *j.opts.Cfg)
	}
	return k
}

func toEntry(r *experiment.RunResult) *runcache.Entry {
	return &runcache.Entry{
		Mode: string(r.Mode), Wall: r.Wall, Phases: r.Phases,
		Checks: r.Checks, FoM: r.FoM, Trace: r.Trace, Profile: r.Profile,
	}
}

func fromEntry(e *runcache.Entry) *experiment.RunResult {
	return &experiment.RunResult{
		Mode: core.Mode(e.Mode), Wall: e.Wall, Phases: e.Phases,
		Checks: e.Checks, FoM: e.FoM, Trace: e.Trace, Profile: e.Profile,
	}
}

// study replays RunStudy for one spec: the pooled grid, then, with
// verify set, tracecheck.Verify over every completed trace serially in
// mode then repetition order, as RunStudy does after its pool drains.
func (r *replayer) study(parent int, spec experiment.Spec, opts experiment.StudyOptions, verify bool) *experiment.Study {
	id := r.led.begin("study", parent)
	defer r.led.end(id, 0)
	opts = filledStudyOptions(opts)
	jobs := r.studyJobs(opts)
	results := make([]*experiment.RunResult, len(jobs))
	drops := make([]*experiment.DroppedRep, len(jobs))
	r.pool(id, len(jobs), func(i, pool int) {
		results[i], drops[i] = r.job(pool, spec, jobs[i])
	})
	st := &experiment.Study{Spec: spec, Opts: opts, Runs: make(map[core.Mode][]*experiment.RunResult)}
	for i, j := range jobs {
		if drops[i] != nil {
			st.Dropped = append(st.Dropped, *drops[i])
		}
		switch {
		case results[i] == nil:
		case j.mode == "":
			st.Refs = append(st.Refs, results[i])
		default:
			st.Runs[j.mode] = append(st.Runs[j.mode], results[i])
		}
	}
	if !verify {
		return st
	}
	for _, mode := range opts.Modes {
		for rep, res := range st.Runs[mode] {
			if res.Trace == nil {
				continue
			}
			var rpt *tracecheck.Report
			r.led.do("tracecheck.verify", id, func() int64 {
				rpt = tracecheck.Verify(res.Trace, tracecheck.Options{})
				return int64(res.Trace.NumEvents())
			})
			st.TraceChecks = append(st.TraceChecks, experiment.TraceCheckResult{Mode: mode, Rep: rep, Report: rpt})
		}
	}
	return st
}

// filledStudyOptions resolves the defaults RunStudy fills in, which the
// replay needs explicitly.
func filledStudyOptions(o experiment.StudyOptions) experiment.StudyOptions {
	if o.Noise == nil {
		p := noise.Cluster()
		o.Noise = &p
	}
	if len(o.Modes) == 0 {
		o.Modes = core.AllModes()
	}
	return o
}

// propagationStudy replays RunPropagationStudy for one spec and plan:
// per mode a baseline and a faulted run of the same seed on the pool,
// then propagation.Analyze on each pair and the fronts against tsc.
func (r *replayer) propagationStudy(parent int, spec experiment.Spec, seed int64, plan faults.Plan) (*experiment.PropagationStudy, error) {
	id := r.led.begin("study", parent)
	defer r.led.end(id, 0)
	if plan.Seed == 0 {
		plan.Seed = seed
	}
	modes := core.AllModes()
	var jobs []job
	for _, mode := range modes {
		cfg := measure.DefaultConfig(mode)
		for _, withFaults := range []bool{false, true} {
			o := experiment.RunOptions{Cfg: &cfg, Seed: seed, Metrics: r.led.registry()}
			if withFaults {
				p := plan
				o.Faults = &p
			}
			jobs = append(jobs, job{mode: mode, opts: o})
		}
	}
	results := make([]*experiment.RunResult, len(jobs))
	drops := make([]*experiment.DroppedRep, len(jobs))
	r.pool(id, len(jobs), func(i, pool int) {
		results[i], drops[i] = r.job(pool, spec, jobs[i])
	})
	st := &experiment.PropagationStudy{Spec: spec.Name, Ranks: spec.Ranks, Plan: plan.Describe(), Seed: seed}
	for _, d := range drops {
		if d != nil {
			st.Dropped = append(st.Dropped, *d)
		}
	}
	analyses := make(map[core.Mode]*propagation.Analysis)
	ok := 0
	for i, mode := range modes {
		mp := experiment.ModePropagation{Mode: mode}
		baseline, faulted := results[2*i], results[2*i+1]
		switch {
		case baseline == nil:
			mp.Err = "baseline run dropped"
		case faulted == nil:
			mp.Err = "faulted run dropped"
		default:
			mp.BaselineWall, mp.FaultedWall = baseline.Wall, faulted.Wall
			mp.Applied = faulted.Applied
			var a *propagation.Analysis
			var err error
			r.led.do("propagation.analyze", id, func() int64 {
				a, err = propagation.Analyze(baseline.Trace, faulted.Trace, propagation.Options{})
				return events(baseline) + events(faulted)
			})
			if err != nil {
				mp.Err = err.Error()
			} else {
				mp.Analysis = a
				analyses[mode] = a
				ok++
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
	if ok == 0 {
		return nil, fmt.Errorf("experiment %s: every propagation mode failed; first: %s", spec.Name, st.Modes[0].Err)
	}
	return st, nil
}
