package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/noise"
)

// timingDependent lists the quick specs whose logical traces may change
// with physical timing, each with its reason.  The test asserts that
// every listed spec's traces do differ, so the list cannot go stale.
var timingDependent = map[string]string{
	"MasterWorker-8": "the master deals the next task to whichever result Waitany completes first, " +
		"so physical timing decides the receive order and the logical stamps follow it",
}

// TestLogicalTracesResistNoiseAndFaults checks the paper's noise
// resilience claim (§V-B: rep-to-rep J = 1 for the pure logical clocks)
// on every quick spec: the paper's configurations and the propagation
// patterns.  Each spec runs in one deterministic mode, rotating through
// them, three times: at noise seeds 1 and 2, and at seed 1 under a
// one-off delay plus a memory-bandwidth window on NUMA domain 0.  The
// three traces must be byte-identical, except on the specs listed in
// timingDependent, whose traces must differ.
func TestLogicalTracesResistNoiseAndFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick simulations")
	}
	modes := []core.Mode{core.ModeLt1, core.ModeLoop, core.ModeBB, core.ModeStmt, core.ModeWStmt}
	specs := append(Specs(Options{Quick: true}), PatternSpecs(Options{Quick: true})...)
	seen := 0
	for i, spec := range specs {
		mode := modes[i%len(modes)]
		cfg := measure.DefaultConfig(mode)
		plan := oneOffPlan(spec)
		plan.Faults = append(plan.Faults, faults.Fault{Kind: faults.MemDegrade, Domain: 0, Duration: 300, Factor: 0.5})
		var sums [3]string
		for j, o := range []RunOptions{
			{Cfg: &cfg, Seed: 1, Noise: noise.Cluster()},
			{Cfg: &cfg, Seed: 2, Noise: noise.Cluster()},
			{Cfg: &cfg, Seed: 1, Noise: noise.Cluster(), Faults: &plan},
		} {
			res, err := RunWithOptions(spec, o)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, mode, err)
			}
			if o.Faults != nil {
				fired := map[faults.Kind]bool{}
				for _, a := range res.Applied {
					fired[a.Kind] = true
				}
				if !fired[faults.OneOffDelay] || !fired[faults.MemDegrade] {
					t.Fatalf("%s/%s: not every fault fired: %+v", spec.Name, mode, res.Applied)
				}
			}
			sums[j] = traceSum(res.Trace)
		}
		same := sums[0] == sums[1] && sums[0] == sums[2]
		if reason, ok := timingDependent[spec.Name]; ok {
			seen++
			if same {
				t.Errorf("%s/%s: traces identical at seeds 1 and 2 and under faults, yet listed as timing-dependent (%s)",
					spec.Name, mode, reason)
			}
			continue
		}
		if sums[0] != sums[1] {
			t.Errorf("%s/%s: trace differs between noise seeds 1 and 2", spec.Name, mode)
		}
		if sums[0] != sums[2] {
			t.Errorf("%s/%s: trace differs under the one-off delay and membw window", spec.Name, mode)
		}
	}
	if seen != len(timingDependent) {
		t.Errorf("%d of the %d timing-dependent specs exist", seen, len(timingDependent))
	}
}
