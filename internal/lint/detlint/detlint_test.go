package detlint_test

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/detlint"
	"repro/internal/lint/linttest"
)

// Each testdata module seeds the violations its analyzer must flag —
// and the idioms it must NOT flag — checked against // want comments,
// analysistest-style.  This is the "CI fails on a seeded determinism-
// lint violation" acceptance criterion: if an analyzer regresses, the
// seeded violations stop being reported and this test fails.
func TestWallclock(t *testing.T) {
	linttest.RunModule(t, filepath.Join("testdata", "src", "wallclock"), detlint.Wallclock)
}

func TestGlobalRand(t *testing.T) {
	linttest.RunModule(t, filepath.Join("testdata", "src", "globalrand"), detlint.GlobalRand)
}

func TestMapOrder(t *testing.T) {
	linttest.RunModule(t, filepath.Join("testdata", "src", "maporder"), detlint.MapOrder)
}

// TestContractCorpus runs the whole suite over the contract module
// (stub vtime package plus one specimen package per concern), where
// both scopes report, and checks every diagnostic against the // want
// annotations.  hidden's only // want matches the helper scope: its
// map-order sink sits two helper calls below the turn body, where no
// single function shows it.
func TestContractCorpus(t *testing.T) {
	linttest.RunModule(t, filepath.Join("testdata", "src", "contract"), detlint.Analyzers()...)
}

// TestDiagnosticDeterminism: two suite runs over separately loaded
// copies of the contract corpus, in two goroutines at once, must render
// byte-identical diagnostics.  Under -race it also proves the runs
// share no state.  The modules load one after the other, so no
// synchronisation inside the loader orders the two runs.
func TestDiagnosticDeterminism(t *testing.T) {
	var mods [2]*lint.Module
	for i := range mods {
		m, err := lint.LoadModule(filepath.Join("testdata", "src", "contract"))
		if err != nil {
			t.Fatal(err)
		}
		mods[i] = m
	}
	var renders [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i, m := range mods {
		wg.Add(1)
		go func(i int, m *lint.Module) {
			defer wg.Done()
			diags, err := lint.RunModuleAnalyzers(m, detlint.Analyzers())
			lint.RelativizePaths(diags, m.Dir)
			var b strings.Builder
			for _, d := range diags {
				b.WriteString(d.String())
				b.WriteString("\n")
			}
			renders[i], errs[i] = b.String(), err
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if renders[0] != renders[1] {
		t.Errorf("two runs disagree:\n--- first\n%s--- second\n%s", renders[0], renders[1])
	}
	if renders[0] == "" {
		t.Error("corpus run produced no diagnostics; determinism check is vacuous")
	}
}
