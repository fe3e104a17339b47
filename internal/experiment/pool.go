package experiment

// The worker-pool executor behind RunStudy, RunFaultStudy and
// RunScaling.  Every job in a study's grid is fully isolated — it builds
// its own vtime.Kernel, its own machine and its own seeded noise model —
// so jobs can run on any number of goroutines.  Determinism across
// worker counts comes from three rules, all enforced here:
//
//  1. A job's inputs (seed, noise, faults, config) are computed during
//     grid *enumeration*, never during execution, so they cannot depend
//     on scheduling order.
//  2. Results are placed back by slot index; the output grid is
//     assembled in enumeration order after every worker has finished.
//  3. The degradation path (panic isolation, one retry with the seed
//     shifted by retrySeedOffset, Dropped accounting) lives in runJob,
//     so a retried or dropped repetition behaves identically whether it
//     ran on worker 1 of 1 or worker 7 of 16.
//
// With those rules, RunStudy/RunFaultStudy/RunScaling outputs are
// byte-identical for any worker count (asserted by pool_test.go).

import (
	"crypto/sha256"
	_ "embed"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/tracecheck"
)

// goldenGrid is the committed golden checksum grid (golden_test.go):
// the trace, profile, critical-path and verifier hashes of every timer
// mode on the quick MiniFE-1, LULESH-1, TeaLeaf-1 and pattern specs.
//
//go:embed testdata/golden_sha256.json
var goldenGrid []byte

// cacheCodeVersion salts every cache key with the simulation semantics
// version, so stale entries miss instead of resurfacing results the
// current code would not compute.  Its suffix is the sha256 of the
// golden grid: a change that alters any gridded job fails
// TestGoldenChecksums until -update-golden rewrites the grid, and the
// rewrite moves the salt.  The "repro-sim-3" prefix is still bumped by
// hand for a semantics change the grid cannot see: a path only the
// full-scale specs take, the MiniFE-2, LULESH-2 and TeaLeaf-2..4
// geometries, or the lt_wstmt and lt_hwcomb modes.
var cacheCodeVersion = fmt.Sprintf("repro-sim-3/%x", sha256.Sum256(goldenGrid))

// Job is one self-describing unit of a study's grid: which configuration
// to run, with which options, and where the result goes.
type Job struct {
	// Slot is the job's placement index in the pool's result slice.
	Slot int
	// Spec is the configuration to run (scaling grids vary it per point).
	Spec Spec
	// Mode is the timer mode, "" for an uninstrumented reference run.
	// It is also recorded in DroppedRep when the job fails twice.
	Mode core.Mode
	// Rep is the repetition number within (Spec, Mode).
	Rep int
	// Opts are the fully-resolved run options, seed included.
	Opts RunOptions
}

// poolHooks bundles the pool's observe-only reporting: grid counters in
// a metrics registry plus an optional live progress reporter.  The zero
// value is fully inert (all obs handles are nil-safe), so the execution
// path is identical with observability on or off — hooks fire strictly
// after a job's outcome is decided and never influence placement,
// retries or caching.
type poolHooks struct {
	jobs        *obs.Counter   // jobs started (cache hits included)
	retried     *obs.Counter   // jobs that needed their one retry
	dropped     *obs.Counter   // jobs dropped after the retry failed
	cacheHits   *obs.Counter   // jobs served from the run cache
	cacheMisses *obs.Counter   // jobs the cache did not have
	jobVirtual  *obs.Histogram // per-job virtual seconds
	progress    *obs.Progress
}

// newPoolHooks interns the pool's metric names in r (nil yields inert
// handles) and attaches the progress reporter (may be nil).
func newPoolHooks(r *obs.Registry, p *obs.Progress) poolHooks {
	return poolHooks{
		jobs:        r.Counter("experiment_jobs"),
		retried:     r.Counter("experiment_jobs_retried"),
		dropped:     r.Counter("studies_dropped"),
		cacheHits:   r.Counter("experiment_cache_hits"),
		cacheMisses: r.Counter("experiment_cache_misses"),
		jobVirtual:  r.Histogram("experiment_job_virtual_seconds", 0.01, 0.1, 1, 10, 100),
		progress:    p,
	}
}

// jobDone reports one finished job and its virtual cost.
func (h poolHooks) jobDone(wall float64) {
	h.jobVirtual.Observe(wall)
	h.progress.JobDone(wall)
}

// studyJobs enumerates RunStudy's full grid — reference repetitions
// first, then every mode's repetitions in opts.Modes order — with the
// exact per-job seeds and analyze flags of the original sequential
// protocol.  The enumeration is the contract that keeps cached results
// from sequential runs valid under any worker count (pinned by
// TestStudyJobSeedsMatchSequentialProtocol).
func studyJobs(spec Spec, opts StudyOptions) []Job {
	jobs := make([]Job, 0, opts.Reps*(1+len(opts.Modes)))
	for rep := 0; rep < opts.Reps; rep++ {
		jobs = append(jobs, Job{
			Slot: len(jobs), Spec: spec, Mode: "", Rep: rep,
			Opts: RunOptions{
				Seed: opts.BaseSeed + int64(rep), Noise: *opts.Noise,
				Faults: opts.Faults, Metrics: opts.Metrics,
			},
		})
	}
	for _, mode := range opts.Modes {
		cfg := measure.DefaultConfig(mode)
		for rep := 0; rep < opts.Reps; rep++ {
			analyze := rep == 0 || !mode.Deterministic() || opts.AnalyzeAll
			jobs = append(jobs, Job{
				Slot: len(jobs), Spec: spec, Mode: mode, Rep: rep,
				Opts: RunOptions{
					Cfg: &cfg, Seed: opts.BaseSeed + int64(rep), Noise: *opts.Noise,
					Faults: opts.Faults, Analyze: analyze, Metrics: opts.Metrics,
				},
			})
		}
	}
	return jobs
}

// poolWorkers resolves a requested worker count against a job count:
// 0 (or negative) means GOMAXPROCS, and there is never a reason to run
// more workers than jobs.
func poolWorkers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runPool executes the jobs across min(workers, len(jobs)) goroutines
// and returns, both placed by slot, the results (nil where the job was
// dropped) and the dropped-repetition records (nil where it succeeded).
// Each worker writes only its own jobs' slots, so placement needs no
// lock, and slot indexing keeps the output independent of scheduling;
// flattenDrops turns the drop slots into the report form.  When checks
// is non-nil (one slot per job), the worker also verifies the trace of
// every instrumented job, fresh or served from the cache, right after
// its result is decided, and stores the report in the job's slot.
func runPool(jobs []Job, workers int, cache *runcache.Cache, hooks poolHooks, checks []*tracecheck.Report) ([]*RunResult, []*DroppedRep) {
	results := make([]*RunResult, len(jobs))
	drops := make([]*DroppedRep, len(jobs))
	run := func(i int) {
		results[i], drops[i] = runJob(jobs[i], cache, hooks)
		if res := results[i]; checks != nil && res != nil && res.Trace != nil {
			checks[i] = tracecheck.Verify(res.Trace, tracecheck.Options{})
		}
	}
	workers = poolWorkers(workers, len(jobs))
	if workers == 1 {
		for i := range jobs {
			run(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					run(i)
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	return results, drops
}

// flattenDrops collects the pool's per-slot drop records in
// job-enumeration order.
func flattenDrops(drops []*DroppedRep) []DroppedRep {
	var out []DroppedRep
	for _, d := range drops {
		if d != nil {
			out = append(out, *d)
		}
	}
	return out
}

// runJob executes one job with the shared degradation path: consult the
// cache, run isolated, retry once with a fresh seed on failure, and
// convert a double failure into a DroppedRep.  Only a first-attempt
// success is cached — a retry's result belongs to the shifted seed, and
// caching it under the primary key would hand later runs a result the
// primary seed never produced.
func runJob(job Job, cache *runcache.Cache, hooks poolHooks) (*RunResult, *DroppedRep) {
	hooks.jobs.Inc()
	key := cacheKey(job.Spec, job.Opts)
	if cache != nil {
		if e, ok := cache.Get(key); ok {
			res := resultOf(e)
			hooks.cacheHits.Inc()
			hooks.progress.CacheHit()
			hooks.jobDone(res.Wall)
			return res, nil
		}
		hooks.cacheMisses.Inc()
	}
	res, err := runIsolated(job.Spec, job.Opts)
	if err == nil {
		if cache != nil {
			// A failed Put only costs the next run a re-simulation.
			_ = cache.Put(key, entryOf(res))
		}
		hooks.jobDone(res.Wall)
		return res, nil
	}
	hooks.retried.Inc()
	hooks.progress.JobRetried()
	retry := job.Opts
	retry.Seed += retrySeedOffset
	res, err2 := runIsolated(job.Spec, retry)
	if err2 == nil {
		hooks.jobDone(res.Wall)
		return res, nil
	}
	hooks.dropped.Inc()
	hooks.progress.JobDropped()
	return nil, &DroppedRep{
		Mode: job.Mode, Rep: job.Rep, Seed: job.Opts.Seed,
		Err: fmt.Sprintf("%v (retry with seed %d: %v)", err, retry.Seed, err2),
	}
}

// cacheKey builds the content address of one job.  The spec's App
// closure is not hashable: its identity is carried by Name, Description,
// the geometry fields and cacheCodeVersion, which is why that salt must
// move with every simulation-semantics change.
func cacheKey(spec Spec, o RunOptions) runcache.Key {
	k := runcache.Key{
		Spec: fmt.Sprintf("%s|%dx%dx%d|oneper=%t|%s",
			spec.Name, spec.Ranks, spec.Threads, spec.Nodes, spec.OnePerDomain, spec.Description),
		Seed:    o.Seed,
		Noise:   fmt.Sprintf("%+v", o.Noise),
		Analyze: o.Analyze,
		Version: cacheCodeVersion,
	}
	if o.Cfg != nil {
		k.Mode = string(o.Cfg.Mode)
		k.Config = fmt.Sprintf("%+v", *o.Cfg)
	}
	if o.Faults != nil {
		// Key the *effective* plan: RunWithOptions defaults a zero plan
		// seed to the job seed before arming.
		plan := *o.Faults
		if plan.Seed == 0 {
			plan.Seed = o.Seed
		}
		k.Faults = fmt.Sprintf("seed=%d|jitter=%g|%s", plan.Seed, plan.Jitter, plan.String())
	}
	return k
}

// entryOf converts a run result to its cached form.
func entryOf(r *RunResult) *runcache.Entry {
	e := &runcache.Entry{
		Mode: string(r.Mode), Wall: r.Wall, Phases: r.Phases,
		Checks: r.Checks, FoM: r.FoM, Trace: r.Trace, Profile: r.Profile,
	}
	for _, a := range r.Applied {
		e.Applied = append(e.Applied, runcache.AppliedFault{
			Kind: string(a.Kind), Rank: a.Rank, Core: a.Core,
			Resource: a.Resource, At: a.At, Magnitude: a.Magnitude,
		})
	}
	return e
}

// resultOf converts a cached entry back to a run result.
func resultOf(e *runcache.Entry) *RunResult {
	r := &RunResult{
		Mode: core.Mode(e.Mode), Wall: e.Wall, Phases: e.Phases,
		Checks: e.Checks, FoM: e.FoM, Trace: e.Trace, Profile: e.Profile,
	}
	for _, a := range e.Applied {
		r.Applied = append(r.Applied, faults.AppliedFault{
			Kind: faults.Kind(a.Kind), Rank: a.Rank, Core: a.Core,
			Resource: a.Resource, At: a.At, Magnitude: a.Magnitude,
		})
	}
	return r
}
