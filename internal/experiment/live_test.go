package experiment

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/obs"
)

// TestLiveObservationDoesNotPerturbResults extends the observe-only
// identity guarantee to what the live observatory and the Perfetto
// export attach to a single run: with a metrics registry and a timeline
// attached, a run must produce the byte-identical trace and profile,
// and the same virtual wall time, as an unobserved run.
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

		observed := base
		observed.Metrics = obs.NewRegistry()
		observed.Timeline = &obs.Timeline{}
		res, err := RunWithOptions(spec, observed)
		if err != nil {
			t.Fatalf("%s: observed run: %v", label, err)
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
