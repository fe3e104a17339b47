package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
)

// TestPathBreakdownIgnoresMapOrder: a call-path group's share sums the
// shares of many paths, and with shares of mixed magnitude float
// rounding depends on the order of that sum.  Fifty renderings of the
// same study must be byte-identical.
func TestPathBreakdownIgnoresMapOrder(t *testing.T) {
	p := cube.New("lt_stmt", []string{"r0t0"})
	comp := p.AddMetric("comp", "", cube.NoParent)
	root := p.Path(cube.NoParent, "main")
	for i, v := range []float64{1e16, 1, -1e16, 1, 1, 1e16, 1, -1e16, 1} {
		p.Add(comp, p.Path(root, fmt.Sprintf("kernel%d", i)), 0, v)
	}
	st := &Study{Runs: map[core.Mode][]*RunResult{core.ModeStmt: {{Profile: p}}}}
	groups := map[string][]string{"kernels": {"kernel"}}
	render := func() string {
		var b bytes.Buffer
		pathBreakdown(&b, st, "comp", groups)
		return b.String()
	}
	want := render()
	for i := 0; i < 50; i++ {
		if got := render(); got != want {
			t.Fatalf("rendering %d differs:\n%s\nfirst rendering:\n%s", i, got, want)
		}
	}
}
