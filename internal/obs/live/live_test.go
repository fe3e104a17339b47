package live_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/scalasca"
	"repro/internal/trace"
	"repro/internal/tracecheck"
)

// pollingSink tees the measurement's records into a spill writer and
// polls the watcher synchronously every pollEvery records — a fully
// deterministic stand-in for a monitoring client hitting the tail
// mid-run.
type pollingSink struct {
	t         *testing.T
	cw        *trace.ChunkWriter
	w         *live.Watcher
	n         int
	pollEvery int

	lastEvents int
	lastChunks int
	polls      int
	sawChunks  bool
}

func (s *pollingSink) Region(name string, role trace.Role) trace.RegionID {
	return s.cw.Region(name, role)
}

func (s *pollingSink) AddLocation(rank, thread int) int {
	return s.cw.AddLocation(rank, thread)
}

func (s *pollingSink) Record(l int, e trace.Event) {
	s.cw.Record(l, e)
	s.n++
	if s.n%s.pollEvery != 0 {
		return
	}
	s.polls++
	sum, err := s.w.WaitStates()
	if err != nil {
		s.t.Fatalf("mid-run WaitStates: %v", err)
	}
	if sum.Done {
		s.t.Fatal("tail reported done while the run is still writing")
	}
	if sum.Damage != "" {
		s.t.Fatalf("mid-run damage: %s", sum.Damage)
	}
	if sum.Events < s.lastEvents || sum.Chunks < s.lastChunks {
		s.t.Fatalf("summary went backwards: events %d->%d chunks %d->%d",
			s.lastEvents, sum.Events, s.lastChunks, sum.Chunks)
	}
	s.lastEvents, s.lastChunks = sum.Events, sum.Chunks
	if sum.Chunks > 0 {
		s.sawChunks = true
	}
}

// TestWatcherConvergesToPostMortem runs a real instrumented simulation
// with the observatory tailing its spill, polling incrementally from
// inside the event stream, and asserts the final online analysis is
// deep-equal to the post-mortem Analyze of the finished file.
func TestWatcherConvergesToPostMortem(t *testing.T) {
	spec, err := experiment.SpecByName("MiniFE-1", experiment.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spill.ltrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := measure.DefaultConfig(core.ModeStmt)
	cw := trace.NewChunkWriter(f, string(cfg.Mode))
	cw.AutoFlush = true
	cw.ChunkEvents = 256 // several chunks per location mid-run

	w, err := live.Watch(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sink := &pollingSink{t: t, cw: cw, w: w, pollEvery: 1000}

	res, err := experiment.RunWithOptions(spec, experiment.RunOptions{
		Cfg: &cfg, Seed: 1, Noise: noise.Cluster(), Analyze: true,
		TraceSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.polls == 0 || !sink.sawChunks {
		t.Fatalf("vacuous run: %d polls, sawChunks=%v", sink.polls, sink.sawChunks)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Final poll: the tail sees the sealed trace.
	sum, err := w.WaitStates()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Done {
		t.Fatal("tail not done after the writer sealed the trace")
	}
	if sum.Events != res.Trace.NumEvents() {
		t.Fatalf("tailed %d events, run recorded %d", sum.Events, res.Trace.NumEvents())
	}
	if sum.AnalyzeError != "" {
		t.Fatalf("final analysis failed: %s", sum.AnalyzeError)
	}
	if sum.ViolationTotal != 0 {
		t.Fatalf("clean run reported %d violations: %v", sum.ViolationTotal, sum.Violations)
	}
	if len(sum.Waits) == 0 {
		t.Fatal("no wait-state metrics in the final summary")
	}

	// Convergence: online profile == post-mortem profile, exactly.
	online, err := w.Profile()
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	postMortem, err := scalasca.Analyze(spilled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(online, postMortem) {
		t.Fatal("online profile diverged from post-mortem Analyze")
	}
	// And the spill analyzes identically to the in-memory trace the run
	// returned (the sink mirrored every event faithfully).
	direct, err := scalasca.Analyze(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(online, direct) {
		t.Fatal("spill profile diverged from the run's own trace")
	}
	// Invariant checker agrees with its post-mortem run too.
	post := tracecheck.Verify(spilled, tracecheck.Options{})
	if !post.OK() {
		t.Fatalf("post-mortem verification failed: %d violations", post.NumViolations())
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestMonitorEndpoints serves a sealed trace plus metrics and progress
// through the HTTP surface and checks every endpoint's contract.
func TestMonitorEndpoints(t *testing.T) {
	// A small sealed trace for /timeline and /waitstates.
	spec, err := experiment.SpecByName("MiniFE-1", experiment.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := measure.DefaultConfig(core.ModeStmt)
	res, err := experiment.RunWithOptions(spec, experiment.RunOptions{
		Cfg: &cfg, Seed: 1, Noise: noise.Cluster(),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.ltrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChunked(f, res.Trace); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	reg.Counter("demo_total").Add(7)
	clock := time.Unix(1000, 0)
	prog := obs.NewProgress(io.Discard, "test", func() time.Time { return clock })
	prog.Start(2, "jobs")
	prog.JobDone(1.5)

	mon := live.NewMonitor(live.Options{
		Registry:  reg,
		Progress:  prog,
		TracePath: path,
	})
	srv := httptest.NewServer(mon)
	defer srv.Close()
	defer mon.Close()

	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, srv.URL+"/metrics")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if string(body[:len("demo_total 7")]) != "demo_total 7" {
		t.Fatalf("/metrics text = %q", body)
	}
	code, body = get(t, srv.URL+"/metrics?format=json")
	var snap obs.Snapshot
	if code != http.StatusOK || json.Unmarshal(body, &snap) != nil {
		t.Fatalf("/metrics?format=json = %d %q", code, body)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}

	code, body = get(t, srv.URL+"/progress?format=json")
	var st obs.ProgressState
	if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
		t.Fatalf("/progress = %d %q", code, body)
	}
	if st.Done != 1 || st.Total != 2 || st.Percent != 50 {
		t.Fatalf("progress state = %+v", st)
	}

	code, body = get(t, srv.URL+"/waitstates")
	var sum live.WaitSummary
	if code != http.StatusOK || json.Unmarshal(body, &sum) != nil {
		t.Fatalf("/waitstates = %d %q", code, body)
	}
	if !sum.Done || sum.Events != res.Trace.NumEvents() {
		t.Fatalf("waitstates = done=%v events=%d (want %d)", sum.Done, sum.Events, res.Trace.NumEvents())
	}

	code, body = get(t, srv.URL+"/timeline")
	var tl struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &tl) != nil {
		t.Fatalf("/timeline = %d (%d bytes)", code, len(body))
	}
	if len(tl.TraceEvents) == 0 {
		t.Fatal("/timeline exported no events")
	}
}

// TestMonitorAbsentComponents asserts unwired endpoints answer 503, and
// that a trace path that appears later is picked up lazily.
func TestMonitorAbsentComponents(t *testing.T) {
	dir := t.TempDir()
	late := filepath.Join(dir, "late.ltrc")
	mon := live.NewMonitor(live.Options{TracePath: late})
	srv := httptest.NewServer(mon)
	defer srv.Close()
	defer mon.Close()

	for _, ep := range []string{"/metrics", "/progress", "/waitstates", "/timeline"} {
		if code, _ := get(t, srv.URL+ep); code != http.StatusServiceUnavailable {
			t.Fatalf("%s = %d before wiring, want 503", ep, code)
		}
	}

	// The recorder creates the file later; the monitor picks it up.
	tr := trace.New("lt_stmt")
	tr.Region("main", trace.RoleUser)
	tr.AddLocation(0, 0)
	tr.Record(0, trace.Event{Kind: trace.EvEnter, Time: 1})
	tr.Record(0, trace.Event{Kind: trace.EvExit, Time: 5})
	f, err := os.Create(late)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChunked(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, srv.URL+"/waitstates")
	var sum live.WaitSummary
	if code != http.StatusOK || json.Unmarshal(body, &sum) != nil {
		t.Fatalf("/waitstates after file appeared = %d %q", code, body)
	}
	if !sum.Done || sum.Events != 2 {
		t.Fatalf("waitstates = %+v", sum)
	}
}

// TestServerStart exercises the real listener path used by the -live
// flags (port 0 picks a free port).
func TestServerStart(t *testing.T) {
	srv, err := live.Start("127.0.0.1:0", live.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}
