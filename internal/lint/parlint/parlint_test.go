package parlint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/detlint"
	"repro/internal/lint/linttest"
	"repro/internal/lint/parlint"
)

// TestContractCorpus runs the full parlint suite over the corpus
// module (stub vtime package plus one specimen package per analyzer)
// and checks every diagnostic against the // want annotations.
func TestContractCorpus(t *testing.T) {
	linttest.RunModule(t, "testdata/src/contract", parlint.Analyzers()...)
}

// TestSyntacticPassMissesHiddenMutation is the seeded acceptance case:
// the map-order sink in testdata/src/contract/hidden sits two helper
// calls below the turn body.  The interprocedural suite reports it
// (asserted by the // want in the corpus via TestContractCorpus); here
// we prove the syntactic detlint suite finds nothing in that package,
// so the catch genuinely needs the call graph.
func TestSyntacticPassMissesHiddenMutation(t *testing.T) {
	loader, err := lint.NewLoader("testdata/src/contract")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/contract/hidden")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkg, detlint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("syntactic suite unexpectedly reports on the hidden corpus: %v", diags)
	}
}

// TestDiagnosticDeterminism: two independent loads and runs of the
// whole suite over the corpus must render byte-identical diagnostics —
// the summary propagation and every traversal are order-stable.
func TestDiagnosticDeterminism(t *testing.T) {
	render := func() string {
		m, err := lint.LoadModule("testdata/src/contract")
		if err != nil {
			t.Fatal(err)
		}
		diags, err := lint.RunModuleAnalyzers(m, parlint.Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		lint.RelativizePaths(diags, m.Dir)
		var b strings.Builder
		for _, d := range diags {
			b.WriteString(d.String())
			b.WriteString("\n")
		}
		return b.String()
	}
	r1, r2 := render(), render()
	if r1 != r2 {
		t.Errorf("two runs disagree:\n--- first\n%s--- second\n%s", r1, r2)
	}
	if r1 == "" {
		t.Error("corpus run produced no diagnostics; determinism check is vacuous")
	}
}
