// Package experiment defines the paper's benchmark configurations
// (§IV: MiniFE-1/2, LULESH-1/2, TeaLeaf-1..4), runs them through the full
// measure→trace→analyze pipeline with every timer mode, and regenerates
// each of the paper's tables and figures as text reports.
package experiment

import (
	"fmt"

	"repro/internal/measure"
	"repro/internal/miniapps/lulesh"
	"repro/internal/miniapps/minife"
	"repro/internal/miniapps/tealeaf"
)

// AppResult normalises the mini-apps' outcomes for the harness.
type AppResult struct {
	// Check is an app-specific scalar used to assert that instrumentation
	// does not change the numerics.
	Check float64
	// FoM is the rank's contribution to the app's figure of merit
	// (paper §IV-B); zero if the app does not report one.
	FoM float64
	// Phases maps phase names to virtual seconds on this rank (for
	// example MiniFE's init/solve split in Table I).
	Phases map[string]float64
}

// App runs a mini-app on one rank.
type App func(r *measure.Rank) AppResult

// Spec is one named benchmark configuration.
type Spec struct {
	Name    string
	Ranks   int
	Threads int
	Nodes   int
	// OnePerDomain selects the MiniFE-style pinning (rank r starts at
	// NUMA domain r); otherwise ranks pack cores contiguously.
	OnePerDomain bool
	App          App
	Description  string
}

// scaling for the harness: the paper's problem geometry with iteration
// counts trimmed so a full study stays laptop-sized.  The Scale knob in
// Specs lets benchmarks shrink further.
func minifeApp(cfg minife.Config) App {
	return func(r *measure.Rank) AppResult {
		res := minife.Run(r, cfg)
		return AppResult{
			Check: res.Residual,
			FoM:   res.FoM,
			Phases: map[string]float64{
				"structgen": res.StructTime,
				"init":      res.InitTime,
				"solve":     res.SolveTime,
			},
		}
	}
}

func luleshApp(cfg lulesh.Config) App {
	return func(r *measure.Rank) AppResult {
		res := lulesh.Run(r, cfg)
		return AppResult{Check: res.EnergySum, FoM: res.FoM}
	}
}

func tealeafApp(cfg tealeaf.Config) App {
	return func(r *measure.Rank) AppResult {
		res := tealeaf.Run(r, cfg)
		return AppResult{Check: res.HeatSum}
	}
}

// Options trims the specs for quick runs.
type Options struct {
	// Quick shrinks grids and iteration counts by roughly 4x.
	Quick bool
}

// Specs returns the paper's eight configurations (§IV-C/D/E).
func Specs(opt Options) []Spec {
	mfe := minife.Default()
	lul := lulesh.Default()
	tea := tealeaf.Default()
	if opt.Quick {
		mfe.Nx, mfe.CGIters = 12, 10
		lul.Side, lul.Steps = 6, 3
		tea.N, tea.Steps, tea.CGIters = 128, 1, 6
	}
	lul2 := lul
	lul2.Imbalance = false
	return []Spec{
		{
			Name: "MiniFE-1", Ranks: 8, Threads: 1, Nodes: 1, OnePerDomain: true,
			App:         minifeApp(mfe),
			Description: "single node, one rank per NUMA domain, 50% imbalance — " + mfe.Describe(),
		},
		{
			Name: "MiniFE-2", Ranks: 8, Threads: 16, Nodes: 1, OnePerDomain: true,
			App:         minifeApp(mfe),
			Description: "full node, 16 threads per rank, 50% imbalance — " + mfe.Describe(),
		},
		{
			Name: "LULESH-1", Ranks: 64, Threads: 4, Nodes: 2,
			App:         luleshApp(lul),
			Description: "two nodes, artificial imbalance on — " + lul.Describe(),
		},
		{
			Name: "LULESH-2", Ranks: 27, Threads: 4, Nodes: 1,
			App:         luleshApp(lul2),
			Description: "one node, uneven NUMA occupancy, imbalance off — " + lul2.Describe(),
		},
		{
			Name: "TeaLeaf-1", Ranks: 1, Threads: 128, Nodes: 1,
			App:         tealeafApp(tea),
			Description: "threads across both sockets — " + tea.Describe(),
		},
		{
			Name: "TeaLeaf-2", Ranks: 2, Threads: 64, Nodes: 1,
			App:         tealeafApp(tea),
			Description: "one rank per socket (optimal) — " + tea.Describe(),
		},
		{
			Name: "TeaLeaf-3", Ranks: 8, Threads: 16, Nodes: 1,
			App:         tealeafApp(tea),
			Description: "one rank per NUMA domain — " + tea.Describe(),
		},
		{
			Name: "TeaLeaf-4", Ranks: 128, Threads: 1, Nodes: 1,
			App:         tealeafApp(tea),
			Description: "pure MPI, all-to-all bound — " + tea.Describe(),
		},
	}
}

// SpecByName finds a configuration by name, searching the paper specs
// first and then the communication-pattern specs.
func SpecByName(name string, opt Options) (Spec, error) {
	for _, s := range Specs(opt) {
		if s.Name == name {
			return s, nil
		}
	}
	for _, s := range PatternSpecs(opt) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiment: unknown configuration %q", name)
}
