package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestLiveObservationDoesNotPerturbResults extends the observe-only
// identity guarantee to the full live-observatory wiring: a run with a
// trace sink spilling to disk, a metrics registry and a timeline
// attached must produce the byte-identical trace and profile of an
// unobserved run.  The spill itself must reproduce the run's trace
// faithfully (same serialised bytes after materializing).
func TestLiveObservationDoesNotPerturbResults(t *testing.T) {
	spec, err := SpecByName("MiniFE-1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModeTSC, core.ModeStmt} {
		label := string(mode)
		cfg := measure.DefaultConfig(mode)
		base := RunOptions{Cfg: &cfg, Seed: 1, Noise: noise.Cluster(), Analyze: true}

		plain, err := RunWithOptions(spec, base)
		if err != nil {
			t.Fatalf("%s: unobserved run: %v", label, err)
		}
		wantTrace, wantProfile := fingerprint(t, label, plain)

		spillPath := filepath.Join(t.TempDir(), "spill.ltrc")
		f, err := os.Create(spillPath)
		if err != nil {
			t.Fatal(err)
		}
		cw := trace.NewChunkWriter(f, string(mode))
		cw.AutoFlush = true

		observed := base
		observed.Metrics = obs.NewRegistry()
		observed.Timeline = &obs.Timeline{}
		observed.TraceSink = cw
		res, err := RunWithOptions(spec, observed)
		if err != nil {
			t.Fatalf("%s: observed run: %v", label, err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		gotTrace, gotProfile := fingerprint(t, label, res)
		if gotTrace != wantTrace {
			t.Errorf("%s: live observation changed the trace bytes", label)
		}
		if gotProfile != wantProfile {
			t.Errorf("%s: live observation changed the profile bytes", label)
		}
		if res.Wall != plain.Wall {
			t.Errorf("%s: live observation changed the wall time: %g vs %g", label, res.Wall, plain.Wall)
		}

		// The spill is a faithful mirror: materialized, it serialises to
		// the same bytes as the run's own trace.
		spilled, err := trace.ReadFile(spillPath)
		if err != nil {
			t.Fatalf("%s: reading spill: %v", label, err)
		}
		var spillBuf, runBuf bytes.Buffer
		if err := spilled.Write(&spillBuf); err != nil {
			t.Fatal(err)
		}
		if err := res.Trace.Write(&runBuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(spillBuf.Bytes(), runBuf.Bytes()) {
			t.Errorf("%s: spill diverged from the run's trace", label)
		}
	}
}

// TestTraceSinkRequiresInstrumentedRun: an uninstrumented run records
// no trace, so there is nothing for a sink to mirror.
func TestTraceSinkRequiresInstrumentedRun(t *testing.T) {
	spec, err := SpecByName("MiniFE-1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = RunWithOptions(spec, RunOptions{
		Seed:      1,
		TraceSink: trace.NewChunkWriter(&buf, string(core.ModeStmt)),
	})
	if err == nil {
		t.Fatal("trace sink accepted on an uninstrumented run")
	}
}

// TestLiveObservationDoesNotPerturbStudyJSON repeats the identity check
// one level up: a propagation study's deterministic JSON must be
// byte-identical whether or not the study harness carries a metrics
// registry and progress reporter.
func TestLiveObservationDoesNotPerturbStudyJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick simulations")
	}
	spec, err := SpecByName("Ring-16", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := PropagationOptions{Seed: 1, Modes: []core.Mode{core.ModeTSC, core.ModeStmt}}
	plan, err := DefaultPropagationPlanFor(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	studyJSON := func(o PropagationOptions) []byte {
		st, err := RunPropagationStudy(spec, o, plan)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := studyJSON(opts)

	observed := opts
	observed.Metrics = obs.NewRegistry()
	clock := time.Unix(0, 0)
	observed.Progress = obs.NewProgress(&bytes.Buffer{}, "test", func() time.Time {
		clock = clock.Add(time.Millisecond)
		return clock
	})
	if !bytes.Equal(plain, studyJSON(observed)) {
		t.Fatal("metrics+progress changed the study JSON bytes")
	}
}
