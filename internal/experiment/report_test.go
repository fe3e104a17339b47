package experiment

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/measure"
	"repro/internal/runcache"
	"repro/internal/trace"
)

// TestPathBreakdownIgnoresMapOrder: a call-path group's share sums the
// shares of many paths, and with shares of mixed magnitude float
// rounding depends on the order of that sum.  Fifty renderings of the
// same study must be byte-identical.
func TestPathBreakdownIgnoresMapOrder(t *testing.T) {
	p := cube.New("lt_stmt", []string{"r0t0"})
	comp := p.AddMetric("comp", "", cube.NoParent)
	root := p.Path(cube.NoParent, "main")
	for i, v := range []float64{1e16, 1, -1e16, 1, 1, 1e16, 1, -1e16, 1} {
		p.Add(comp, p.Path(root, fmt.Sprintf("kernel%d", i)), 0, v)
	}
	st := &Study{Runs: map[core.Mode][]*RunResult{core.ModeStmt: {{Profile: p}}}}
	groups := map[string][]string{"kernels": {"kernel"}}
	render := func() string {
		var b bytes.Buffer
		pathBreakdown(&b, st, "comp", groups)
		return b.String()
	}
	want := render()
	for i := 0; i < 50; i++ {
		if got := render(); got != want {
			t.Fatalf("rendering %d differs:\n%s\nfirst rendering:\n%s", i, got, want)
		}
	}
}

// critPathOf renders CritPathSection for a study.
func critPathOf(st *Study) string {
	var b bytes.Buffer
	CritPathSection(&b, st)
	return b.String()
}

// FullReport's grid keeps no trace.  Each study equals RunStudy's without
// its traces, and the critical-path section, derived on the worker that
// held LULESH-1's tsc repetition 0, equals CritPathSection over the trace
// RunStudy keeps: fresh, and served from a cache RunStudy filled.
func TestFullReportKeepsNoTrace(t *testing.T) {
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := StudyOptions{Reps: 2, BaseSeed: 1, Modes: []core.Mode{core.ModeTSC, core.ModeLt1}, Workers: 2}
	filled := opts
	filled.Cache = cache
	// reportStudies reads only a spec's name, so a tiny spec under the
	// paper spec's name stands in for it.
	lulesh := tinySpec()
	lulesh.Name = critPathSpec
	if _, err := SpecByName(lulesh.Name, Options{}); err != nil {
		t.Fatal(err)
	}
	specs := []Spec{lulesh, tinySpec()}
	full := make(map[string]*Study)
	for _, spec := range specs {
		st, err := RunStudy(spec, filled)
		if err != nil {
			t.Fatal(err)
		}
		full[spec.Name] = st
	}
	if !strings.HasPrefix(critPathOf(full[critPathSpec]), "CRITICAL PATH (LULESH-1, tsc): ") {
		t.Fatalf("RunStudy's critical-path section:\n%s", critPathOf(full[critPathSpec]))
	}
	for _, o := range []StudyOptions{opts, filled} {
		var out bytes.Buffer
		got, err := reportStudies(&out, specs, o)
		if err != nil {
			t.Fatal(err)
		}
		if want := "running LULESH-1 ()...\nrunning tiny ()...\n"; out.String() != want {
			t.Errorf("printed %q, want %q", out.String(), want)
		}
		for _, spec := range specs {
			name := spec.Name
			t.Run(fmt.Sprintf("%s/cached=%t", name, o.Cache != nil), func(t *testing.T) {
				st := got[name]
				assertNoTraces(t, st)
				assertStudiesEqual(t, dropTraces(full[name]), dropTraces(st))
				want := ""
				if name == critPathSpec {
					want = critPathOf(full[name])
				}
				if section := critPathOf(st); section != want {
					t.Errorf("critical-path section:\n%s\nwant:\n%s", section, want)
				}
			})
		}
	}
	if _, misses := cache.Stats(); misses != int64(2*opts.Reps*(1+len(opts.Modes))) {
		t.Fatalf("%d misses, want only the filling studies' jobs", misses)
	}
}

// critPathKey returns the cache key of the spec's tsc repetition 0, the
// job whose critical path the report prints, and the path of its entry
// file in dir.
func critPathKey(t *testing.T, spec Spec, opts StudyOptions, dir string) (runcache.Key, string) {
	t.Helper()
	for _, job := range studyJobs(spec, opts.fill()) {
		if job.Mode == core.ModeTSC && job.Rep == 0 {
			key := cacheKey(spec, job.Opts)
			h := key.Hash()
			return key, filepath.Join(dir, h[:2], h+".ltr")
		}
	}
	t.Fatal("no tsc repetition 0 in the grid")
	return runcache.Key{}, ""
}

// reportHits runs reportStudies over the cache and requires one hit per
// job and no miss; it returns the critical-path section.
func reportHits(t *testing.T, spec Spec, opts StudyOptions) string {
	t.Helper()
	hits, misses := opts.Cache.Stats()
	got, err := reportStudies(io.Discard, []Spec{spec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, m := opts.Cache.Stats()
	if jobs := int64(len(studyJobs(spec, opts.fill()))); h-hits != jobs || m != misses {
		t.Fatalf("%d hits and %d misses for %d jobs", h-hits, m-misses, jobs)
	}
	assertNoTraces(t, got[spec.Name])
	return critPathOf(got[spec.Name])
}

// A cold report stores the critical path in its run's cache entry.  Over
// a cache RunStudy filled, whose entries hold no path, the report prints
// the section RunStudy's trace gives with no miss and stores the entry
// again with the path: afterwards its bytes equal the cold report's.  An
// entry that holds the path serves the section whether its trace blob is
// corrupt or absent, so a warm report decodes no trace.
func TestFullReportStoresTheCritPath(t *testing.T) {
	spec := tinySpec()
	spec.Name = critPathSpec
	opts := StudyOptions{Reps: 2, BaseSeed: 1, Modes: []core.Mode{core.ModeTSC, core.ModeLt1}, Workers: 2}

	coldDir := t.TempDir()
	cold := opts
	cold.Cache = openCache(t, coldDir)
	if _, err := reportStudies(io.Discard, []Spec{spec}, cold); err != nil {
		t.Fatal(err)
	}
	key, coldFile := critPathKey(t, spec, opts, coldDir)
	coldBytes, err := os.ReadFile(coldFile)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := cold.Cache.Get(key); !ok || e.CritPath == nil || e.Trace == nil {
		t.Fatalf("the cold report's entry: hit %t, %+v", ok, e)
	}

	filledDir := t.TempDir()
	filled := opts
	filled.Cache = openCache(t, filledDir)
	full, err := RunStudy(spec, filled)
	if err != nil {
		t.Fatal(err)
	}
	want := critPathOf(full)
	if !strings.HasPrefix(want, "CRITICAL PATH (LULESH-1, tsc): ") {
		t.Fatalf("RunStudy's critical-path section:\n%s", want)
	}
	_, filledFile := critPathKey(t, spec, opts, filledDir)
	if e, ok := filled.Cache.Get(key); !ok || e.CritPath != nil {
		t.Fatalf("RunStudy's entry: hit %t, path %+v", ok, e.CritPath)
	}
	for pass := 0; pass < 2; pass++ {
		if section := reportHits(t, spec, filled); section != want {
			t.Fatalf("pass %d over RunStudy's cache printed\n%s\nwant\n%s", pass, section, want)
		}
		if b, err := os.ReadFile(filledFile); err != nil || !bytes.Equal(b, coldBytes) {
			t.Fatalf("pass %d: the stored entry differs from the cold report's (%d vs %d bytes, %v)",
				pass, len(b), len(coldBytes), err)
		}
	}

	// A trace blob that would not decode: the hit never inflates it.
	bad := append([]byte(nil), coldBytes...)
	bad[bytes.Index(bad, []byte("LTRC"))] ^= 0xff
	if err := os.WriteFile(coldFile, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if section := reportHits(t, spec, cold); section != want {
		t.Fatalf("an entry with the path and a corrupt trace printed\n%s\nwant\n%s", section, want)
	}
	e, _ := filled.Cache.Get(key)
	e.Trace = nil
	if err := cold.Cache.Put(key, e); err != nil {
		t.Fatal(err)
	}
	if section := reportHits(t, spec, cold); section != want {
		t.Fatalf("an entry with the path and no trace printed\n%s\nwant\n%s", section, want)
	}
}

// openCache opens a run cache in dir.
func openCache(t *testing.T, dir string) *runcache.Cache {
	t.Helper()
	c, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A critical path that fails on the worker prints its error line, the
// same line CritPathSection prints over the trace RunStudy keeps.  The
// cache serves tsc repetition 0 a trace whose receive has no send.
func TestFullReportCritPathErrorLine(t *testing.T) {
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.Name = critPathSpec
	opts := StudyOptions{Reps: 1, BaseSeed: 1, Modes: []core.Mode{core.ModeTSC}, Workers: 2, Cache: cache}
	tr := trace.New(string(core.ModeTSC))
	main := tr.Region("main", trace.RoleUser)
	for _, l := range []int{tr.AddLocation(0, 0), tr.AddLocation(1, 0)} {
		tr.Record(l, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
		tr.Record(l, trace.Event{Kind: trace.EvExit, Time: 2, Region: main})
	}
	tr.Record(1, trace.Event{Kind: trace.EvRecv, Time: 3, A: 0, B: 9, C: 8})
	for _, job := range studyJobs(spec, opts.fill()) {
		if job.Mode == core.ModeTSC && job.Rep == 0 {
			if err := cache.Put(cacheKey(spec, job.Opts), &runcache.Entry{Mode: string(job.Mode), Wall: 1, Trace: tr}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := reportStudies(io.Discard, []Spec{spec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunStudy(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := "critical path: scalasca: loc 1 event 2: receive without matching send\n"
	if section := critPathOf(got[spec.Name]); section != want {
		t.Errorf("grid's section %q, want %q", section, want)
	}
	if section := critPathOf(full); section != want {
		t.Errorf("RunStudy's section %q, want %q", section, want)
	}
	assertNoTraces(t, got[spec.Name])
}

// When LULESH-1's tsc repetition 0 is dropped, no worker derives a
// critical path and the report leaves the section out: the first tsc
// run left is repetition 1, which carries neither a path nor a trace.
func TestFullReportLeavesOutADroppedCritPath(t *testing.T) {
	spec := tinySpec()
	spec.Name = critPathSpec
	app := spec.App
	var measured atomic.Int32
	spec.App = func(r *measure.Rank) AppResult {
		// With one worker the jobs run in enumeration order: the first
		// two instrumented jobs are tsc rep 0 and its retry.
		if r.Measured() && r.Rank() == 0 && measured.Add(1) <= 2 {
			panic("tsc rep 0 fails twice")
		}
		return app(r)
	}
	opts := StudyOptions{Reps: 2, BaseSeed: 1, Modes: []core.Mode{core.ModeTSC}, Workers: 1}
	got, err := reportStudies(io.Discard, []Spec{spec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := got[spec.Name]
	if len(st.Dropped) != 1 || st.Dropped[0].Mode != core.ModeTSC || st.Dropped[0].Rep != 0 {
		t.Fatalf("dropped = %+v, want tsc rep 0", st.Dropped)
	}
	if r := st.Runs[core.ModeTSC]; len(r) != 1 || r[0].Trace != nil || r[0].critPath != nil || r[0].critPathErr != nil {
		t.Fatalf("tsc runs %+v, want repetition 1 alone, without trace or path", r)
	}
	if section := critPathOf(st); section != "" {
		t.Fatalf("section %q, want none", section)
	}
}

// MeanProfile computes each mode's mean once: it returns the same
// profile on every call, also to concurrent callers, and that profile's
// bytes equal cube.Mean's over the analysed repetitions.  The mean's
// (metric, call path) map JaccardVsTsc scores is likewise built once and
// equals the mean's MCMap.
func TestMeanProfileComputedOnce(t *testing.T) {
	st, err := RunStudy(tinySpec(), StudyOptions{Reps: 2, BaseSeed: 1, Modes: []core.Mode{core.ModeTSC, core.ModeLt1}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.MeanProfile(core.ModeTSC)
			st.JaccardVsTsc(core.ModeLt1)
		}()
	}
	wg.Wait()
	for _, mode := range st.Opts.Modes {
		p := st.MeanProfile(mode)
		if p == nil || st.MeanProfile(mode) != p {
			t.Fatalf("%s: MeanProfile returned %p, then %p", mode, p, st.MeanProfile(mode))
		}
		var ps []*cube.Profile
		for _, r := range st.Runs[mode] {
			if r.Profile != nil {
				ps = append(ps, r.Profile)
			}
		}
		var want, got bytes.Buffer
		if err := cube.Mean(ps).Write(&want); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s: memoised mean differs from cube.Mean over %d profiles", mode, len(ps))
		}
		m := st.meanMCMap(mode)
		if reflect.ValueOf(st.meanMCMap(mode)).Pointer() != reflect.ValueOf(m).Pointer() {
			t.Errorf("%s: meanMCMap built its map twice", mode)
		}
		if !reflect.DeepEqual(m, p.MCMap()) {
			t.Errorf("%s: memoised map differs from the mean's MCMap", mode)
		}
	}
	if p := st.MeanProfile(core.ModeStmt); p != nil {
		t.Errorf("a mode without runs has mean %p", p)
	}
	if m := st.meanMCMap(core.ModeStmt); m != nil {
		t.Errorf("a mode without runs has map %v", m)
	}
}
