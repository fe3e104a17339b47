package experiment

// The worker-pool executor behind RunStudies, RunStudy, RunFaultStudy,
// RunScaling and RunPropagationStudy.  Every job in a grid is fully
// isolated — it builds its own vtime.Kernel, its own machine and its own
// seeded noise model — so jobs can run on any number of goroutines.  Determinism across
// worker counts comes from three rules, all enforced here:
//
//  1. A job's inputs (seed, noise, faults, config) are computed during
//     grid *enumeration*, never during execution, so they cannot depend
//     on scheduling order.
//  2. Results are placed back by job index; the output grid is
//     assembled in enumeration order after every worker has finished.
//  3. The degradation path (panic isolation, one retry with the seed
//     shifted by retrySeedOffset, Dropped accounting) lives in runJob,
//     so a retried or dropped repetition behaves identically whether it
//     ran on worker 1 of 1 or worker 7 of 16.
//
// With those rules, the study, scaling and propagation outputs are
// byte-identical for any worker count (asserted by pool_test.go).

import (
	"crypto/sha256"
	_ "embed"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/scalasca"
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
// full-scale specs take, or the MiniFE-2, LULESH-2 and TeaLeaf-2..4
// geometries.
var cacheCodeVersion = fmt.Sprintf("repro-sim-3/%x", sha256.Sum256(goldenGrid))

// Job is one self-describing unit of a study's grid: which configuration
// to run, with which options, and which products to derive.  The pool
// places its result at its index in the grid.
type Job struct {
	// Spec is the configuration to run (scaling grids vary it per point).
	Spec Spec
	// Mode is the timer mode, "" for an uninstrumented reference run.
	// It is also recorded in DroppedRep when the job fails twice.
	Mode core.Mode
	// Rep is the repetition number within (Spec, Mode).
	Rep int
	// Opts are the fully-resolved run options, seed included.
	Opts RunOptions

	// The products the job's worker derives from an instrumented run's
	// trace, besides the profile Opts.Analyze asks for.  Verify asks for
	// a tracecheck report, CritPath for the critical path (on the
	// RunResult, and stored in the run's cache entry).  The worker drops
	// the trace once they are derived unless KeepTrace is set.  None of
	// them enters the cache key.
	Verify, CritPath, KeepTrace bool
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

// studyJobs enumerates one study's full grid — reference repetitions
// first, then every mode's repetitions in opts.Modes order — with the
// exact per-job seeds and analyze flags of the original sequential
// protocol, and a trace check on every instrumented job when
// opts.VerifyTraces is set.  The enumeration is the contract that keeps
// cached results from sequential runs valid under any worker count
// (pinned by TestStudyJobSeedsMatchSequentialProtocol).
func studyJobs(spec Spec, opts StudyOptions) []Job {
	jobs := make([]Job, 0, opts.Reps*(1+len(opts.Modes)))
	for rep := 0; rep < opts.Reps; rep++ {
		jobs = append(jobs, Job{
			Spec: spec, Mode: "", Rep: rep,
			Opts: RunOptions{
				Seed: opts.BaseSeed + int64(rep), Noise: *opts.Noise,
				Faults: opts.faults, Metrics: opts.Metrics,
			},
		})
	}
	for _, mode := range opts.Modes {
		cfg := measure.DefaultConfig(mode)
		for rep := 0; rep < opts.Reps; rep++ {
			analyze := rep == 0 || !mode.Deterministic() || opts.analyzeAll
			jobs = append(jobs, Job{
				Spec: spec, Mode: mode, Rep: rep,
				Opts: RunOptions{
					Cfg: &cfg, Seed: opts.BaseSeed + int64(rep), Noise: *opts.Noise,
					Faults: opts.faults, Analyze: analyze, Metrics: opts.Metrics,
				},
				Verify: opts.VerifyTraces,
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
// and returns, each placed at its job's index, the results (nil where
// the job was dropped), the dropped-repetition records (nil where it
// succeeded) and the trace checks (nil unless the job asked for one).
// Each worker writes only its own jobs' slots, so placement needs no
// lock, and indexing keeps the output independent of scheduling;
// flattenDrops turns the drop slots into the report form.
//
// A worker derives its job's products before it drops the trace: the
// profile comes with the result, the critical path with it too (runJob),
// and the trace check follows right after the result is decided, fresh
// or served from the cache.  Then it drops the trace unless the job
// keeps it.  A cache hit whose trace no product reads is served without
// decoding it.
func runPool(jobs []Job, workers int, cache *runcache.Cache, hooks poolHooks) ([]*RunResult, []*DroppedRep, []*tracecheck.Report) {
	results := make([]*RunResult, len(jobs))
	drops := make([]*DroppedRep, len(jobs))
	checks := make([]*tracecheck.Report, len(jobs))
	run := func(i int) {
		job := jobs[i]
		res, drop := runJob(job, cache, hooks)
		if res != nil && res.Trace != nil {
			if job.Verify {
				checks[i] = tracecheck.Verify(res.Trace, tracecheck.Options{})
			}
			if !job.KeepTrace {
				res.Trace = nil
			}
		}
		results[i], drops[i] = res, drop
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := poolWorkers(workers, len(jobs)); w > 0; w-- {
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
	return results, drops, checks
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
// primary seed never produced.  A fresh run always carries its trace; a
// cache hit decodes it only for a product the entry does not hold.  A
// CritPath job's path is derived before the fresh run's Put, so the
// entry stores it; a hit whose entry lacks it derives it from the trace
// and stores the entry again with the path added.
func runJob(job Job, cache *runcache.Cache, hooks poolHooks) (*RunResult, *DroppedRep) {
	hooks.jobs.Inc()
	key := cacheKey(job.Spec, job.Opts)
	if cache != nil {
		if e, ok := cache.Lookup(key, job.needsTrace); ok {
			res := resultOf(e)
			if job.CritPath {
				res.critPath = e.CritPath
				if res.critPath == nil && res.Trace != nil && res.deriveCritPath() {
					// The decoded trace encodes to the same blob, so the
					// entry only gains the path.  A failed Put costs the
					// next run this derivation again.
					_ = cache.Put(key, entryOf(res))
				}
			}
			hooks.cacheHits.Inc()
			hooks.progress.CacheHit()
			hooks.jobDone(res.Wall)
			return res, nil
		}
		hooks.cacheMisses.Inc()
	}
	run := func(o RunOptions) (*RunResult, error) {
		res, err := runIsolated(job.Spec, o)
		if err == nil && job.CritPath {
			res.deriveCritPath()
		}
		return res, err
	}
	res, err := run(job.Opts)
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
	res, err2 := run(retry)
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

// needsTrace is the job's cache-lookup predicate: whether a hit on e
// must decode the trace, because the job keeps or verifies it, or
// derives a critical path e does not hold.
func (job Job) needsTrace(e *runcache.Entry) bool {
	return job.KeepTrace || job.Verify || (job.CritPath && e.CritPath == nil)
}

// deriveCritPath derives the run's critical path from its trace and
// reports whether it succeeded; on failure the run carries the error.
func (r *RunResult) deriveCritPath() bool {
	r.critPath, r.critPathErr = scalasca.CriticalPathAnalysis(r.Trace)
	return r.critPathErr == nil
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
		// The "seed=…|jitter=0|" prefix is the form keys took when a plan
		// could jitter its start times; keeping it keeps the entries
		// cached under it addressable.
		k.Faults = fmt.Sprintf("seed=%d|jitter=0|%s", o.Seed, o.Faults.String())
	}
	return k
}

// entryOf converts a run result to its cached form.
func entryOf(r *RunResult) *runcache.Entry {
	return &runcache.Entry{
		Mode: string(r.Mode), Wall: r.Wall, Phases: r.Phases,
		Checks: r.Checks, FoM: r.FoM, Trace: r.Trace, Profile: r.Profile,
		Applied: r.Applied, CritPath: r.critPath,
	}
}

// resultOf converts a cached entry back to a run result.  The entry's
// critical path is left to the job that asks for it (runJob).
func resultOf(e *runcache.Entry) *RunResult {
	return &RunResult{
		Mode: core.Mode(e.Mode), Wall: e.Wall, Phases: e.Phases,
		Checks: e.Checks, FoM: e.FoM, Trace: e.Trace, Profile: e.Profile,
		Applied: e.Applied,
	}
}
