package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/scalasca"
	"repro/internal/tracecheck"
)

// updateGolden rewrites testdata/golden_sha256.json from the current
// simulation output.  Run it ONLY when a change deliberately alters
// simulation semantics or the verifier's report.  The rewrite moves the
// run-cache salt (pool.go's cacheCodeVersion embeds the grid's hash), so
// stale cache entries miss without a hand-bumped version:
//
//	go test ./internal/experiment -run TestGoldenChecksums -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden critpath/trace/profile/tracecheck checksums")

const goldenPath = "testdata/golden_sha256.json"

// goldenSums is the committed fingerprint of one (app, mode) run: the
// sha256 of the critical-path analysis as JSON, of the trace (traceSum),
// of the serialised analysis profile and of the trace verifier's JSON
// report.
type goldenSums struct {
	Critpath   string `json:"critpath"`
	Trace      string `json:"trace"`
	Profile    string `json:"profile"`
	Tracecheck string `json:"tracecheck"`
}

// TestGoldenChecksums replays one quick configuration per mini-app with
// every timer mode at seed 1 — the six paper modes plus lt_wstmt and
// lt_hwcomb — and demands the serialised trace and cube profile stay
// byte-for-byte identical to the committed checksums.  This
// is the tier-1 tripwire for kernel "optimisations": the deferred
// dirty-set resettling, the index-based detach and every future perf
// pass must be exact, not approximately right — any drift in event
// timestamps, completion order or analysis severities fails here instead
// of silently skewing the paper's tables.  The tracecheck hash pins the
// verifier the same way: its report (edge count, every recorded
// violation) must not move when the verifier gets faster, and
// the critpath hash pins the critical-path walk (total, per-path shares
// and segment count) the same way.
func TestGoldenChecksums(t *testing.T) {
	apps := []string{
		"MiniFE-1", "LULESH-1", "TeaLeaf-1",
		// The propagation-pattern workloads are pinned alongside the paper
		// apps: a drift in their traces would silently reshape every delay
		// front the propagation studies measure.
		"Ring-16", "RingSlack-16", "Torus-16", "Pipeline-8", "MasterWorker-8",
	}
	modes := append(core.AllModes(), core.ModeWStmt, core.ModeHwComb)
	got := make(map[string]goldenSums)
	for _, app := range apps {
		spec, err := SpecByName(app, Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			res, err := Run(spec, mode, 1, noise.Cluster(), true)
			if err != nil {
				t.Fatalf("%s/%s: %v", app, mode, err)
			}
			ph := sha256.New()
			if err := res.Profile.Write(ph); err != nil {
				t.Fatalf("%s/%s: serialising profile: %v", app, mode, err)
			}
			rep, err := json.Marshal(tracecheck.Verify(res.Trace, tracecheck.Options{}))
			if err != nil {
				t.Fatalf("%s/%s: serialising tracecheck report: %v", app, mode, err)
			}
			rh := sha256.Sum256(rep)
			cp, err := scalasca.CriticalPathAnalysis(res.Trace)
			if err != nil {
				t.Fatalf("%s/%s: critical path: %v", app, mode, err)
			}
			cj, err := json.Marshal(cp)
			if err != nil {
				t.Fatalf("%s/%s: serialising critical path: %v", app, mode, err)
			}
			ch := sha256.Sum256(cj)
			got[app+"/"+string(mode)] = goldenSums{
				Critpath:   hex.EncodeToString(ch[:]),
				Trace:      traceSum(res.Trace),
				Profile:    hex.EncodeToString(ph.Sum(nil)),
				Tracecheck: hex.EncodeToString(rh[:]),
			}
		}
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(got))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden checksums (regenerate with -update-golden): %v", err)
	}
	var want map[string]goldenSums
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: committed checksum has no counterpart in this run (mode list changed?)", k)
			continue
		}
		if g.Critpath != want[k].Critpath {
			t.Errorf("%s: critical path drifted from the golden analysis output\n  got  %s\n  want %s",
				k, g.Critpath, want[k].Critpath)
		}
		if g.Trace != want[k].Trace {
			t.Errorf("%s: trace bytes drifted from the golden kernel output\n  got  %s\n  want %s",
				k, g.Trace, want[k].Trace)
		}
		if g.Profile != want[k].Profile {
			t.Errorf("%s: profile bytes drifted from the golden kernel output\n  got  %s\n  want %s",
				k, g.Profile, want[k].Profile)
		}
		if g.Tracecheck != want[k].Tracecheck {
			t.Errorf("%s: tracecheck report drifted from the golden verifier output\n  got  %s\n  want %s",
				k, g.Tracecheck, want[k].Tracecheck)
		}
	}
	if len(got) != len(want) {
		t.Errorf("run produced %d (app, mode) entries, golden file has %d", len(got), len(want))
	}
}

// The run-cache salt is derived from the committed grid, so a rewritten
// grid invalidates every cache entry by itself.
func TestCacheSaltTracksGoldenGrid(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if want := "repro-sim-3/" + hex.EncodeToString(sum[:]); cacheCodeVersion != want {
		t.Fatalf("cache salt %q, want %q", cacheCodeVersion, want)
	}
}
