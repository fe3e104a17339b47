package experiment

import (
	"bytes"
	"strings"
	"testing"
)

// runScaling runs a sweep that must complete without a dropped
// repetition.
func runScaling(t *testing.T, points [][2]int, reps int) []ScalePoint {
	t.Helper()
	res, err := RunScaling(tinySpec(), points, ScalingOptions{Reps: reps, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) > 0 {
		t.Fatalf("dropped repetitions: %+v", res.Dropped)
	}
	return res.Points
}

func TestScalingStudyBasics(t *testing.T) {
	pts := runScaling(t, [][2]int{{1, 1}, {2, 1}, {4, 1}}, 2)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Speedup != 1 || pts[0].Efficiency != 1 {
		t.Fatalf("first point not normalised: %+v", pts[0])
	}
	for _, p := range pts {
		if p.Wall <= 0 {
			t.Fatalf("bad wall time: %+v", p)
		}
		if p.Efficiency < 0 || p.Efficiency > 4 {
			t.Fatalf("implausible efficiency: %+v", p)
		}
	}
}

// TestScalingFirstPointFailed: speedups normalise against the first
// point only, so when it failed every point keeps zero speedup and
// efficiency.
func TestScalingFirstPointFailed(t *testing.T) {
	pts := []ScalePoint{
		{Ranks: 1, Threads: 1, Err: "all repetitions failed"},
		{Ranks: 2, Threads: 1, Wall: 0.5},
		{Ranks: 4, Threads: 1, Wall: 0.3},
	}
	normalizeScaling(pts)
	for _, p := range pts {
		if p.Speedup != 0 || p.Efficiency != 0 {
			t.Fatalf("point %+v normalised although the first point failed", p)
		}
	}
}

func TestScalingStudyAutoSizesNodes(t *testing.T) {
	pts := runScaling(t, [][2]int{{256, 1}}, 1)
	if pts[0].Nodes != 2 {
		t.Fatalf("256 single-thread ranks need 2 nodes, got %d", pts[0].Nodes)
	}
}

func TestRenderScaling(t *testing.T) {
	pts := []ScalePoint{{Ranks: 2, Threads: 4, Nodes: 1, Wall: 0.5, Speedup: 1, Efficiency: 1}}
	var buf bytes.Buffer
	RenderScaling(&buf, "demo", pts)
	out := buf.String()
	for _, want := range []string{"demo", "ranks", "0.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunWithConfigNilIsReference(t *testing.T) {
	res, err := RunWithOptions(tinySpec(), RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil || res.Mode != "" {
		t.Fatal("nil config must run uninstrumented")
	}
}
