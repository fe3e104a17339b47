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
		Faults: &plan,
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
		if job.Slot != i {
			t.Fatalf("job %d: slot %d", i, job.Slot)
		}
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
	_, drops := runPool(jobs, 4, nil, poolHooks{}, nil)
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
