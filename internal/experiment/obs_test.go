package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/obs"
)

// fingerprint reduces one run to the sha256 of its trace and serialised
// profile — the same bytes TestGoldenChecksums pins, so "identical
// fingerprints" means identical results, not merely similar summaries.
func fingerprint(t *testing.T, label string, res *RunResult) (traceHash, profileHash string) {
	t.Helper()
	ph := sha256.New()
	if err := res.Profile.Write(ph); err != nil {
		t.Fatalf("%s: serialising profile: %v", label, err)
	}
	return traceSum(res.Trace), hex.EncodeToString(ph.Sum(nil))
}

// TestMetricsDoNotPerturbResults enforces the observe-only contract of
// the whole obs wiring: attaching a metrics registry and a timeline to a
// run must leave the serialised trace and cube profile byte-for-byte
// identical to an unobserved run — across every mini-app and timer mode
// of the golden grid.  This is why RunOptions.Metrics/Timeline stay out
// of the run-cache key and why cacheCodeVersion was not bumped: the
// instrumentation writes counters, never reads them.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	apps := []string{"MiniFE-1", "LULESH-1", "TeaLeaf-1"}
	for _, app := range apps {
		spec, err := SpecByName(app, Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range core.AllModes() {
			label := app + "/" + string(mode)
			cfg := measure.DefaultConfig(mode)
			base := RunOptions{Cfg: &cfg, Seed: 1, Noise: noise.Cluster(), Analyze: true}

			plain, err := RunWithOptions(spec, base)
			if err != nil {
				t.Fatalf("%s: unobserved run: %v", label, err)
			}
			wantTrace, wantProfile := fingerprint(t, label, plain)

			observed := base
			reg := obs.NewRegistry()
			observed.Metrics = reg
			observed.Timeline = &obs.Timeline{}
			res, err := RunWithOptions(spec, observed)
			if err != nil {
				t.Fatalf("%s: observed run: %v", label, err)
			}
			gotTrace, gotProfile := fingerprint(t, label, res)

			if gotTrace != wantTrace {
				t.Errorf("%s: metrics changed the trace bytes\n  on  %s\n  off %s", label, gotTrace, wantTrace)
			}
			if gotProfile != wantProfile {
				t.Errorf("%s: metrics changed the profile bytes\n  on  %s\n  off %s", label, gotProfile, wantProfile)
			}
			if res.Wall != plain.Wall {
				t.Errorf("%s: metrics changed the virtual wall time: %g vs %g", label, res.Wall, plain.Wall)
			}
			// Guard against a vacuous pass: the registry must actually have
			// seen the run (interning returns the live handles).
			if v := reg.Counter("vtime_steps").Value(); v == 0 {
				t.Errorf("%s: registry attached but vtime_steps is zero", label)
			}
			if v := reg.Counter("simmpi_messages").Value(); v == 0 && spec.Ranks > 1 {
				t.Errorf("%s: registry attached but simmpi_messages is zero", label)
			}
		}
	}
}

// TestFaultObservabilityIsObserveOnly repeats the on/off comparison with
// a fault plan armed, covering the injector's metrics and timeline
// hooks: injections must be counted and marked without shifting a single
// event of the faulted run.
func TestFaultObservabilityIsObserveOnly(t *testing.T) {
	spec, err := SpecByName("MiniFE-1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.ParseSpec("oneoff:rank=0,at=0.001,delay=0.0005;membw:domain=0,at=0.002,dur=0.003,factor=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := measure.DefaultConfig(core.ModeStmt)
	base := RunOptions{Cfg: &cfg, Seed: 1, Noise: noise.Cluster(), Analyze: true, Faults: &plan}

	plain, err := RunWithOptions(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	wantTrace, wantProfile := fingerprint(t, "faulted", plain)

	observed := base
	reg := obs.NewRegistry()
	tl := &obs.Timeline{}
	observed.Metrics = reg
	observed.Timeline = tl
	res, err := RunWithOptions(spec, observed)
	if err != nil {
		t.Fatal(err)
	}
	gotTrace, gotProfile := fingerprint(t, "faulted+obs", res)

	if gotTrace != wantTrace || gotProfile != wantProfile {
		t.Errorf("fault observability changed the run:\n  trace   %s vs %s\n  profile %s vs %s",
			gotTrace, wantTrace, gotProfile, wantProfile)
	}
	if v := reg.Counter("faults_injections").Value(); v == 0 {
		t.Error("fault fired but faults_injections is zero")
	}
	if len(tl.Marks()) == 0 {
		t.Error("fault fired but the timeline carries no marks")
	}
	if len(tl.Samples()) == 0 {
		t.Error("membw window armed but the timeline carries no capacity samples")
	}
}
