package experiment

// The determinism suite for the worker-pool executor: the repository's
// reproducibility guarantee (DESIGN.md "Determinism rules") only
// survives parallel execution if a study's output is provably identical
// for every worker count, and only survives caching if a cache hit is
// provably identical to a fresh simulation.  These tests pin both, plus
// the seed protocol that keeps sequentially-written cache entries valid
// under any worker count.

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/work"
)

// traceBytes fingerprints a run's trace ("" when absent) so equality
// can be asserted at the byte level, not just structurally.
func traceBytes(t *testing.T, r *RunResult) string {
	t.Helper()
	if r.Trace == nil {
		return ""
	}
	return traceSum(r.Trace)
}

// assertRunsEqual requires two result slices to match deep-equal,
// including trace bytes and profile metric maps.
func assertRunsEqual(t *testing.T, label string, want, got []*RunResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d runs vs %d", label, len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s rep %d: results differ:\nwant %+v\ngot  %+v", label, i, want[i], got[i])
		}
		if wb, gb := traceBytes(t, want[i]), traceBytes(t, got[i]); wb != gb {
			t.Errorf("%s rep %d: trace bytes differ (%d vs %d bytes)", label, i, len(wb), len(gb))
		}
		wp, gp := want[i].Profile, got[i].Profile
		if (wp == nil) != (gp == nil) {
			t.Fatalf("%s rep %d: profile presence differs", label, i)
		}
		if wp != nil && !reflect.DeepEqual(wp.MCMap(), gp.MCMap()) {
			t.Errorf("%s rep %d: profile metrics differ", label, i)
		}
	}
}

// assertStudiesEqual requires everything RunStudy computed — references,
// per-mode runs, dropped records, trace verification reports — to match.
func assertStudiesEqual(t *testing.T, want, got *Study) {
	t.Helper()
	assertRunsEqual(t, "reference", want.Refs, got.Refs)
	if len(want.Runs) != len(got.Runs) {
		t.Fatalf("mode sets differ: %d vs %d", len(want.Runs), len(got.Runs))
	}
	for mode := range want.Runs {
		assertRunsEqual(t, string(mode), want.Runs[mode], got.Runs[mode])
	}
	if !reflect.DeepEqual(want.Dropped, got.Dropped) {
		t.Errorf("dropped records differ:\nwant %+v\ngot  %+v", want.Dropped, got.Dropped)
	}
	if !reflect.DeepEqual(want.TraceChecks, got.TraceChecks) {
		t.Errorf("trace checks differ:\nwant %+v\ngot  %+v", want.TraceChecks, got.TraceChecks)
	}
}

// dropTraces returns a copy of st whose runs carry no trace and no
// critical path: what the same study must equal when its pool keeps no
// trace.
func dropTraces(st *Study) *Study {
	c := &Study{
		Spec: st.Spec, Opts: st.Opts, Refs: st.Refs, Dropped: st.Dropped, TraceChecks: st.TraceChecks,
		Runs: make(map[core.Mode][]*RunResult, len(st.Runs)),
	}
	for mode, rs := range st.Runs {
		for _, r := range rs {
			r2 := *r
			r2.Trace, r2.critPath, r2.critPathErr = nil, nil, nil
			c.Runs[mode] = append(c.Runs[mode], &r2)
		}
	}
	return c
}

// assertNoTraces requires that no run of the study kept its trace.
func assertNoTraces(t *testing.T, st *Study) {
	t.Helper()
	for mode, rs := range st.Runs {
		for i, r := range rs {
			if r.Trace != nil {
				t.Errorf("%s %s run %d kept its trace", st.Spec.Name, mode, i)
			}
		}
	}
}

// assertVerified requires one clean trace check per instrumented
// repetition, in mode-list then repetition order.
func assertVerified(t *testing.T, st *Study) {
	t.Helper()
	i := 0
	for _, mode := range st.Opts.Modes {
		for rep := 0; rep < st.Opts.Reps; rep++ {
			if i >= len(st.TraceChecks) {
				t.Fatalf("%d trace checks, want one per instrumented repetition", len(st.TraceChecks))
			}
			tc := st.TraceChecks[i]
			if tc.Mode != mode || tc.Rep != rep {
				t.Fatalf("trace check %d is %s rep %d, want %s rep %d", i, tc.Mode, tc.Rep, mode, rep)
			}
			if !tc.Report.OK() || tc.Report.Events == 0 {
				t.Fatalf("%s rep %d: report %+v", mode, rep, tc.Report)
			}
			i++
		}
	}
	if i != len(st.TraceChecks) {
		t.Fatalf("%d trace checks, want %d", len(st.TraceChecks), i)
	}
}

// Tentpole acceptance: the same study, run with 1, 2 and GOMAXPROCS
// workers, is deep-equal including trace bytes, profile metrics and the
// trace verification reports the pool workers produce.
func TestStudyIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := tinySpec()
	opts := StudyOptions{
		Reps: 2, BaseSeed: 3,
		Modes:        []core.Mode{core.ModeTSC, core.ModeLt1, core.ModeStmt, core.ModeHwctr},
		VerifyTraces: true,
	}
	opts.Workers = 1
	want, err := RunStudy(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertVerified(t, want)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		opts.Workers = workers
		got, err := RunStudy(spec, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			assertStudiesEqual(t, want, got)
		})
	}
}

// Same guarantee for the paired fault study, whose repetitions all run
// analyzed and whose clean/faulted halves must stay seed-aligned.
func TestFaultStudyIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := tinySpec()
	plan := faults.AfzalPlan(spec.Ranks, 1e-4, 5e-4)
	opts := StudyOptions{Reps: 2, BaseSeed: 11, Modes: []core.Mode{core.ModeTSC, core.ModeStmt}}
	opts.Workers = 1
	want, err := RunFaultStudy(spec, opts, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		opts.Workers = workers
		got, err := RunFaultStudy(spec, opts, plan)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			assertStudiesEqual(t, want.Clean, got.Clean)
			assertStudiesEqual(t, want.Faulted, got.Faulted)
		})
	}
}

// And for the scaling sweep: points, timings and drop records must not
// depend on the worker count.
func TestScalingIdenticalAcrossWorkerCounts(t *testing.T) {
	points := [][2]int{{1, 1}, {2, 1}, {4, 2}}
	opts := ScalingOptions{Reps: 2, Seed: 5, Workers: 1}
	want, err := RunScaling(tinySpec(), points, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		opts.Workers = workers
		got, err := RunScaling(tinySpec(), points, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want.Points, got.Points) {
			t.Errorf("workers=%d: points differ:\nwant %+v\ngot  %+v", workers, want.Points, got.Points)
		}
		if !reflect.DeepEqual(want.Dropped, got.Dropped) {
			t.Errorf("workers=%d: dropped differ", workers)
		}
	}
}

// Property for the deferred dirty-set resettling under parallel
// execution: a study whose fault plan drives capacity windows
// (LinkDegrade/MemDegrade collapse and restore resource capacity from
// Post callbacks, landing on resources already dirtied by detaches at
// the same instant) is deep-equal — trace bytes and profile metrics —
// between a sequential run and a four-worker pool.
func TestCapacityWindowStudyIdenticalPooled(t *testing.T) {
	spec := tinySpec()
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.MemDegrade, Domain: 0, At: 1e-4, Duration: 2e-3, Factor: 0.25},
		{Kind: faults.LinkDegrade, Node: 0, At: 2e-4, Duration: 1e-3, Factor: 0.5},
	}}
	opts := StudyOptions{
		Reps: 2, BaseSeed: 9,
		Modes:  []core.Mode{core.ModeTSC, core.ModeLt1},
		faults: &plan,
	}
	opts.Workers = 1
	want, err := RunStudy(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	got, err := RunStudy(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertStudiesEqual(t, want, got)
}

// Seed-independence regression: the pool must compute exactly the seeds
// of the historical sequential protocol — BaseSeed+rep per job,
// +retrySeedOffset on retry — or cache entries written by sequential
// runs would silently stop matching.
func TestStudyJobSeedsMatchSequentialProtocol(t *testing.T) {
	if retrySeedOffset != 1_000_003 {
		t.Fatalf("retrySeedOffset = %d; changing it invalidates every existing cache", retrySeedOffset)
	}
	spec := tinySpec()
	opts := (StudyOptions{Reps: 3, BaseSeed: 42}).fill()
	jobs := studyJobs(spec, opts)
	i := 0
	expect := func(mode core.Mode, rep int, analyze bool) {
		t.Helper()
		job := jobs[i]
		if job.Mode != mode || job.Rep != rep {
			t.Fatalf("job %d: got (%q, rep %d), want (%q, rep %d)", i, job.Mode, job.Rep, mode, rep)
		}
		if want := opts.BaseSeed + int64(rep); job.Opts.Seed != want {
			t.Fatalf("job %d (%s rep %d): seed %d, want %d", i, mode, rep, job.Opts.Seed, want)
		}
		if job.Opts.Analyze != analyze {
			t.Fatalf("job %d (%s rep %d): analyze %t, want %t", i, mode, rep, job.Opts.Analyze, analyze)
		}
		if (mode == "") != (job.Opts.Cfg == nil) {
			t.Fatalf("job %d: config presence does not match mode %q", i, mode)
		}
		i++
	}
	for rep := 0; rep < opts.Reps; rep++ {
		expect("", rep, false)
	}
	for _, mode := range opts.Modes {
		for rep := 0; rep < opts.Reps; rep++ {
			expect(mode, rep, rep == 0 || !mode.Deterministic())
		}
	}
	if i != len(jobs) {
		t.Fatalf("grid has %d jobs beyond the sequential protocol", len(jobs)-i)
	}
}

// The retry seed the pool actually uses is primary+retrySeedOffset; the
// dropped-rep record spells it out, which this test pins by value.
func TestPoolRetrySeedMatchesSequentialPath(t *testing.T) {
	spec := tinySpec()
	spec.App = func(r *measure.Rank) AppResult { panic("always fails") }
	_, err := RunStudy(spec, StudyOptions{Reps: 1, BaseSeed: 7, Modes: []core.Mode{core.ModeLt1}})
	if err == nil {
		t.Fatal("all-failing study reported success")
	}
	if want := fmt.Sprintf("retry with seed %d", 7+retrySeedOffset); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the sequential retry seed (%s)", err, want)
	}
}

// Dropped records keep job-enumeration order regardless of which worker
// finished first.
func TestDroppedOrderIsEnumerationOrder(t *testing.T) {
	spec := tinySpec()
	spec.App = func(r *measure.Rank) AppResult { panic("always fails") }
	jobs := studyJobs(spec, (StudyOptions{Reps: 2, BaseSeed: 1, Modes: []core.Mode{core.ModeLt1, core.ModeTSC}}).fill())
	_, drops, _ := runPool(jobs, 4, nil, poolHooks{})
	dropped := flattenDrops(drops)
	if len(dropped) != len(jobs) {
		t.Fatalf("%d drops for %d jobs", len(dropped), len(jobs))
	}
	for i, d := range dropped {
		if d.Mode != jobs[i].Mode || d.Rep != jobs[i].Rep || d.Seed != jobs[i].Opts.Seed {
			t.Fatalf("drop %d is %+v, want job %+v", i, d, jobs[i])
		}
	}
}

// Satellite acceptance: a cache hit returns a RunResult deep-equal to a
// fresh, uncached simulation.
func TestCacheHitMatchesFreshRun(t *testing.T) {
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	opts := StudyOptions{
		Reps: 2, BaseSeed: 9,
		Modes: []core.Mode{core.ModeTSC, core.ModeStmt}, Workers: 2, Cache: cache,
		VerifyTraces: true,
	}
	cold, err := RunStudy(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertVerified(t, cold)
	if hits, _ := cache.Stats(); hits != 0 {
		t.Fatalf("cold study hit the cache %d times", hits)
	}
	warm, err := RunStudy(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	jobs := opts.Reps * (1 + len(opts.Modes))
	if hits != int64(jobs) || misses != int64(jobs) {
		t.Fatalf("stats = %d hits, %d misses; want %d, %d", hits, misses, jobs, jobs)
	}
	assertStudiesEqual(t, cold, warm)
	// And against a study that never saw a cache at all.
	opts.Cache = nil
	opts.Workers = 1
	fresh, err := RunStudy(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertStudiesEqual(t, fresh, warm)
}

// Derive, then drop: RunFaultStudy's grid keeps no trace, yet derives
// every product before it drops each one.  Its clean and faulted studies
// equal RunStudy's under the same options without their traces (trace
// checks, profiles, walls and drops) at 1 and 2 workers, both cold and
// served from a cache RunStudy filled.
func TestDroppedTracesKeepDerivedProducts(t *testing.T) {
	spec := tinySpec()
	plan := oneOffPlan(spec)
	opts := StudyOptions{
		Reps: 2, BaseSeed: 5,
		Modes:        []core.Mode{core.ModeTSC, core.ModeLt1, core.ModeStmt},
		VerifyTraces: true, analyzeAll: true,
	}
	faulted := opts
	faulted.faults = &plan
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want []*Study
	for _, o := range []StudyOptions{opts, faulted} {
		o.Cache = cache
		full, err := RunStudy(spec, o)
		if err != nil {
			t.Fatal(err)
		}
		assertVerified(t, full)
		want = append(want, dropTraces(full))
	}
	filled := opts
	filled.Cache = cache
	for _, o := range []StudyOptions{opts, filled} {
		for _, workers := range []int{1, 2} {
			o.Workers = workers
			got, err := RunFaultStudy(spec, o, plan)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("cached=%t/workers=%d", o.Cache != nil, workers), func(t *testing.T) {
				for i, st := range []*Study{got.Clean, got.Faulted} {
					assertNoTraces(t, st)
					assertStudiesEqual(t, want[i], st)
				}
			})
		}
	}
	jobs := int64(2 * opts.Reps * (1 + len(opts.Modes)))
	if hits, misses := cache.Stats(); hits != 2*jobs || misses != jobs {
		t.Fatalf("stats = %d hits, %d misses; want %d, %d", hits, misses, 2*jobs, jobs)
	}
}

// tinyVariant is tinySpec under another name and geometry, so that it
// has cache keys of its own.
func tinyVariant(name string, ranks, threads int) Spec {
	spec := tinySpec()
	spec.Name, spec.Ranks, spec.Threads = name, ranks, threads
	return spec
}

// One grid: RunStudies over three specs equals RunStudy per spec without
// its traces (refs, runs, profiles, trace checks and drops) at 1 and 2
// workers, cold and served from a cache RunStudy filled.  A cache that
// RunStudies fills serves RunStudy every job, traces included.
func TestRunStudiesMatchesRunStudy(t *testing.T) {
	specs := []Spec{tinySpec(), tinyVariant("tiny-2x2", 2, 2), tinyVariant("tiny-8x1", 8, 1)}
	opts := StudyOptions{
		Reps: 2, BaseSeed: 5,
		Modes:        []core.Mode{core.ModeTSC, core.ModeLt1, core.ModeStmt},
		VerifyTraces: true,
	}
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	filled := opts
	filled.Cache = cache
	var full, want []*Study
	for _, spec := range specs {
		st, err := RunStudy(spec, filled)
		if err != nil {
			t.Fatal(err)
		}
		assertVerified(t, st)
		full = append(full, st)
		want = append(want, dropTraces(st))
	}
	for _, o := range []StudyOptions{opts, filled} {
		for _, workers := range []int{1, 2} {
			o.Workers = workers
			got, err := RunStudies(specs, o)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("cached=%t/workers=%d", o.Cache != nil, workers), func(t *testing.T) {
				if len(got) != len(specs) {
					t.Fatalf("%d studies for %d specs", len(got), len(specs))
				}
				for i, st := range got {
					if st.Spec.Name != specs[i].Name {
						t.Fatalf("study %d is %s, want %s", i, st.Spec.Name, specs[i].Name)
					}
					assertNoTraces(t, st)
					assertStudiesEqual(t, want[i], st)
				}
			})
		}
	}
	jobs := int64(len(specs) * opts.Reps * (1 + len(opts.Modes)))
	if hits, misses := cache.Stats(); hits != 2*jobs || misses != jobs {
		t.Fatalf("stats = %d hits, %d misses; want %d, %d", hits, misses, 2*jobs, jobs)
	}

	grid, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Cache = grid
	if _, err := RunStudies(specs, o); err != nil {
		t.Fatal(err)
	}
	_, before := grid.Stats()
	for i, spec := range specs {
		st, err := RunStudy(spec, o)
		if err != nil {
			t.Fatal(err)
		}
		assertStudiesEqual(t, full[i], st)
	}
	if _, after := grid.Stats(); after != before {
		t.Fatalf("RunStudy missed %d times in a cache RunStudies filled", after-before)
	}
}

// The option checks of every study in a grid run before any job: a
// negative count or an unknown mode fails with no job run and no cache
// lookup, also when only the second study's options are at fault.
func TestRunStudiesCheckOptionsFirst(t *testing.T) {
	specs := []Spec{tinySpec(), tinyVariant("tiny-2x2", 2, 2)}
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	good := StudyOptions{Reps: 1, Modes: []core.Mode{core.ModeLt1}, Cache: cache, Metrics: reg}
	negative, bogus := good, good
	negative.Reps = -1
	bogus.Modes = []core.Mode{core.ModeLt1, "bogus"}
	_, repsErr := RunStudies(specs, negative)
	_, modeErr := RunStudies(specs, bogus)
	_, secondErrs := runGrid([]gridStudy{{spec: specs[0], opts: good}, {spec: specs[1], opts: bogus}})
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"negative reps", repsErr, "experiment tiny: repetition count -1 is negative"},
		{"unknown mode", modeErr, `experiment tiny: core: unknown clock mode "bogus"`},
		{"second study's mode", secondErrs[1], `experiment tiny-2x2: core: unknown clock mode "bogus"`},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, c.err, c.want)
		}
	}
	if secondErrs[0] != nil {
		t.Errorf("the first study's options were rejected: %v", secondErrs[0])
	}
	if n := reg.Counter("experiment_jobs").Value(); n != 0 {
		t.Errorf("%d jobs ran before the options were rejected", n)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 0 {
		t.Errorf("the cache saw %d hits, %d misses before the options were rejected", hits, misses)
	}
}

// A grid whose second study fails every repetition returns the error
// RunStudy returns for that study.
func TestRunStudiesReportsTheFailedStudy(t *testing.T) {
	// 200 ranks of two threads need more cores than one node has, so
	// every repetition and its retry fail to place.
	broken := tinyVariant("unplaceable", 200, 2)
	opts := StudyOptions{Reps: 1, Modes: []core.Mode{core.ModeLt1}, Workers: 2}
	want, err := RunStudy(broken, opts)
	if err == nil {
		t.Fatalf("RunStudy succeeded on %s: %+v", broken.Name, want)
	}
	sts, gridErr := RunStudies([]Spec{tinySpec(), broken}, opts)
	if gridErr == nil || gridErr.Error() != err.Error() {
		t.Fatalf("RunStudies err = %v (studies %v), want %v", gridErr, sts, err)
	}
}

// A trace check names its job's repetition number, as a dropped-rep
// record does: with rep 0 of the first mode dropped, the surviving
// rep 1 is reported as rep 1, not renumbered to rep 0.
func TestTraceCheckRepNamesJobRepetition(t *testing.T) {
	spec := tinySpec()
	app := spec.App
	var measured atomic.Int32
	spec.App = func(r *measure.Rank) AppResult {
		// With one worker the jobs run in enumeration order: the first
		// two instrumented jobs are lt_1 rep 0 and its retry.
		if r.Measured() && r.Rank() == 0 && measured.Add(1) <= 2 {
			panic("lt_1 rep 0 fails twice")
		}
		return app(r)
	}
	st, err := RunStudy(spec, StudyOptions{
		Reps: 2, BaseSeed: 3, Workers: 1, VerifyTraces: true,
		Modes: []core.Mode{core.ModeLt1, core.ModeStmt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Dropped) != 1 || st.Dropped[0].Mode != core.ModeLt1 || st.Dropped[0].Rep != 0 {
		t.Fatalf("dropped = %+v, want lt_1 rep 0", st.Dropped)
	}
	var got []string
	for _, tc := range st.TraceChecks {
		got = append(got, fmt.Sprintf("%s/%d", tc.Mode, tc.Rep))
	}
	if want := []string{"lt_1/1", "lt_stmt/0", "lt_stmt/1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("trace checks %v, want %v", got, want)
	}
}

// Distinct jobs of one study must never share a content address.
func TestCacheKeysDistinctAcrossGrid(t *testing.T) {
	spec := tinySpec()
	opts := (StudyOptions{Reps: 2, BaseSeed: 1}).fill()
	seen := map[string]int{}
	for i, job := range studyJobs(spec, opts) {
		h := cacheKey(job.Spec, job.Opts).Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("jobs %d and %d share a cache key", prev, i)
		}
		seen[h] = i
	}
	// A fault plan must change the address even with everything else equal.
	plan := faults.AfzalPlan(spec.Ranks, 1e-4, 5e-4)
	bare := cacheKey(spec, RunOptions{Seed: 1})
	faulted := cacheKey(spec, RunOptions{Seed: 1, Faults: &plan})
	if bare.Hash() == faulted.Hash() {
		t.Fatal("fault plan not part of the cache key")
	}
	// A faulted job's key keeps the bytes caches were filled under,
	// whatever seed its plan carries.  The hash also covers
	// cacheCodeVersion, so an -update-golden that moves the salt moves
	// it too.
	quick, err := SpecByName("MiniFE-1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantFaults = "seed=7|jitter=0|oneoff:rank=4,at=0.01,delay=0.002"
		wantHash   = "3847f8b1ca38971a94d87f33f3f34c3483cd4ea2d1d12df23b2e9b687d89f361"
	)
	for _, planSeed := range []int64{0, 7} {
		plan := faults.AfzalPlan(quick.Ranks, 0.01, 0.002)
		plan.Seed = planSeed
		k := cacheKey(quick, RunOptions{Seed: 7, Faults: &plan})
		if k.Faults != wantFaults || k.Hash() != wantHash {
			t.Errorf("plan seed %d: key faults %q hash %s, want %q %s", planSeed, k.Faults, k.Hash(), wantFaults, wantHash)
		}
	}
}

// Race stress (run under -race in CI): many tiny jobs on a small pool,
// with successes and double-failures interleaved, hammering result
// placement and Dropped accounting.  The sweep runs twice and must be
// deep-equal — scheduling may not leak into results even while drops
// are being recorded concurrently.
func TestPoolRaceStress(t *testing.T) {
	spec := Spec{
		Name: "racy", Ranks: 2, Threads: 1, Nodes: 1,
		App: func(r *measure.Rank) AppResult {
			if r.Size()%2 == 1 {
				panic("odd world size fails deterministically")
			}
			r.Work(work.Cost{Instr: 500, Flops: 100, Bytes: 200})
			r.Allreduce([]float64{1}, 0)
			return AppResult{Check: 1}
		},
	}
	var points [][2]int
	for ranks := 1; ranks <= 8; ranks++ {
		points = append(points, [2]int{ranks, 1})
	}
	opts := ScalingOptions{Reps: 4, Seed: 2, Workers: 3}
	run := func() *ScalingResult {
		res, err := RunScaling(spec, points, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	// Drop records embed panic stack traces whose goroutine IDs vary run
	// to run; equality is asserted on their identity fields instead.
	stripErr := func(res *ScalingResult) (points []ScalePoint, drops []DroppedRep) {
		for _, p := range res.Points {
			if p.Err != "" {
				p.Err = "failed"
			}
			points = append(points, p)
		}
		for _, d := range res.Dropped {
			d.Err = ""
			drops = append(drops, d)
		}
		return points, drops
	}
	aPts, aDrops := stripErr(a)
	bPts, bDrops := stripErr(b)
	if !reflect.DeepEqual(aPts, bPts) {
		t.Fatalf("identical sweeps differ:\n%+v\n%+v", aPts, bPts)
	}
	if !reflect.DeepEqual(aDrops, bDrops) {
		t.Fatalf("drop records differ:\n%+v\n%+v", aDrops, bDrops)
	}
	if len(a.Dropped) != 4*4 {
		t.Fatalf("%d drops, want 16 (4 odd points x 4 reps)", len(a.Dropped))
	}
	for _, p := range a.Points {
		if odd := p.Ranks%2 == 1; odd != (p.Err != "") {
			t.Fatalf("point %dx%d: Err=%q does not match its parity", p.Ranks, p.Threads, p.Err)
		}
	}
	if a.Points[0].Err == "" {
		t.Fatal("failed first point should carry an error entry")
	}
	if a.Points[1].Wall <= 0 {
		t.Fatal("even point lost its timing")
	}
}

// FaultReport's mode rows must render in a stable sorted order when the
// mode list was defaulted, and byte-identically across renders.
func TestFaultReportStableModeOrder(t *testing.T) {
	spec := tinySpec()
	plan := faults.AfzalPlan(spec.Ranks, 1e-4, 5e-4)
	fs, err := RunFaultStudy(spec, StudyOptions{Reps: 1, BaseSeed: 1}, plan)
	if err != nil {
		t.Fatal(err)
	}
	var one, two bytes.Buffer
	FaultReport(&one, fs)
	FaultReport(&two, fs)
	if one.String() != two.String() {
		t.Fatal("two renders of the same fault study differ")
	}
	modes := reportModes(fs.Faulted.Opts)
	if len(modes) != len(core.AllModes()) {
		t.Fatalf("defaulted report covers %d modes", len(modes))
	}
	last := -1
	for _, m := range modes {
		idx := strings.Index(one.String(), "\n"+string(m)+" ")
		if idx < 0 {
			t.Fatalf("mode %s missing from report:\n%s", m, one.String())
		}
		if idx < last {
			t.Fatalf("mode rows out of sorted order:\n%s", one.String())
		}
		last = idx
	}
	// An explicit mode list keeps the caller's order.
	explicit := reportModes((StudyOptions{Modes: []core.Mode{core.ModeTSC, core.ModeLt1}}).fill())
	if !reflect.DeepEqual(explicit, []core.Mode{core.ModeTSC, core.ModeLt1}) {
		t.Fatalf("explicit mode order rewritten: %v", explicit)
	}
}

// poolWorkers clamps sensibly at the edges.
func TestPoolWorkersResolution(t *testing.T) {
	if w := poolWorkers(0, 100); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS", w)
	}
	if w := poolWorkers(8, 3); w != 3 {
		t.Fatalf("workers not capped by jobs: %d", w)
	}
	if w := poolWorkers(-2, 5); w < 1 {
		t.Fatalf("nonpositive request resolved to %d", w)
	}
	if w := poolWorkers(2, 0); w != 1 {
		t.Fatalf("empty grid resolved to %d workers", w)
	}
}
