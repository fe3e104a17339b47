package tracecheck_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/tracecheck"
)

// TestCleanMiniApps asserts the paper's core structural claim: every
// logical effort model emits traces satisfying the Lamport clock
// condition (and every other checked invariant) on all three mini-apps;
// tsc traces pass the structural checks (matching, ordering, nesting)
// with the clock condition not asserted.
func TestCleanMiniApps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick simulations")
	}
	specs := []string{"MiniFE-1", "LULESH-2", "TeaLeaf-2"}
	modes := append([]core.Mode{}, core.LogicalModes()...)
	modes = append(modes, core.ModeTSC)
	np := noise.Params{}
	for _, name := range specs {
		spec, err := experiment.SpecByName(name, experiment.Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				res, err := experiment.Run(spec, mode, 1, np, false)
				if err != nil {
					t.Fatal(err)
				}
				r := tracecheck.Verify(res.Trace, tracecheck.Options{})
				if !r.OK() {
					var sb strings.Builder
					r.Render(&sb, 10)
					t.Fatalf("invariant violations:\n%s", sb.String())
				}
				if wantLogical := mode != core.ModeTSC; r.Logical != wantLogical {
					t.Fatalf("mode %s classified logical=%v", mode, r.Logical)
				}
				if r.Edges == 0 {
					t.Fatalf("no synchronisation edges reconstructed for %s", name)
				}
			})
		}
	}
}

// TestCleanPatterns runs the same invariant suite over every
// communication-pattern workload (the propagation-study media) in every
// timer mode: the patterns exercise message shapes the paper apps do not
// (Sendrecv rings, bounded-window backpressure, AnyTag task farms), and
// the PDES work will lean on these traces as oracles.
func TestCleanPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick simulations")
	}
	modes := append([]core.Mode{}, core.LogicalModes()...)
	modes = append(modes, core.ModeTSC)
	np := noise.Params{}
	for _, spec := range experiment.PatternSpecs(experiment.Options{Quick: true}) {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", spec.Name, mode), func(t *testing.T) {
				res, err := experiment.Run(spec, mode, 1, np, false)
				if err != nil {
					t.Fatal(err)
				}
				r := tracecheck.Verify(res.Trace, tracecheck.Options{})
				if !r.OK() {
					var sb strings.Builder
					r.Render(&sb, 10)
					t.Fatalf("invariant violations:\n%s", sb.String())
				}
				if r.Edges == 0 {
					t.Fatalf("no synchronisation edges reconstructed for %s", spec.Name)
				}
			})
		}
	}
}

// TestCleanWithNoise repeats the check for one hybrid configuration with
// the noise model on: noise perturbs virtual timing and therefore message
// matching order, but must never break causal consistency.
func TestCleanWithNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick simulations")
	}
	spec, err := experiment.SpecByName("MiniFE-2", experiment.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	np := noise.Cluster()
	for _, mode := range []core.Mode{core.ModeStmt, core.ModeHwctr} {
		res, err := experiment.Run(spec, mode, 3, np, false)
		if err != nil {
			t.Fatal(err)
		}
		r := tracecheck.Verify(res.Trace, tracecheck.Options{})
		if !r.OK() {
			var sb strings.Builder
			r.Render(&sb, 10)
			t.Fatalf("%s with noise: invariant violations:\n%s", mode, sb.String())
		}
	}
}
