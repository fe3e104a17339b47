package cube

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func buildSample() *Profile {
	p := New("tsc", []string{"r0t0", "r1t0"})
	time := p.AddMetric("time", "", NoParent)
	comp := p.AddMetric("comp", "", time)
	mpi := p.AddMetric("mpi", "", time)
	main := p.Path(NoParent, "main")
	solve := p.Path(main, "solve")
	dot := p.Path(solve, "dot")
	send := p.Path(solve, "MPI_Send")
	p.Add(time, main, 0, 10)
	p.Add(time, solve, 0, 30)
	p.Add(time, dot, 0, 20)
	p.Add(time, send, 0, 40)
	p.Add(time, main, 1, 100)
	p.Add(comp, dot, 0, 20)
	p.Add(comp, main, 1, 100)
	p.Add(mpi, send, 0, 40)
	return p
}

func TestTotalsAndPercent(t *testing.T) {
	p := buildSample()
	if got := p.TotalByName("time"); got != 200 {
		t.Fatalf("time total = %g, want 200", got)
	}
	if got := p.TotalByName("mpi"); got != 40 {
		t.Fatalf("mpi total = %g, want 40", got)
	}
	if got := p.PercentOfTime("mpi"); math.Abs(got-20) > 1e-12 {
		t.Fatalf("mpi %%T = %g, want 20", got)
	}
	if got := p.PercentOfTime("comp"); math.Abs(got-60) > 1e-12 {
		t.Fatalf("comp %%T = %g, want 60", got)
	}
}

func TestPathStringAndInclusive(t *testing.T) {
	p := buildSample()
	timeID, _ := p.MetricByName("time")
	dot := p.internPathString("main/solve/dot")
	if s := p.PathString(dot); s != "main/solve/dot" {
		t.Fatalf("PathString = %q", s)
	}
	solve := p.internPathString("main/solve")
	// Inclusive solve = 30 + 20 + 40 = 90.
	if got := p.Inclusive(timeID, solve); got != 90 {
		t.Fatalf("inclusive = %g, want 90", got)
	}
}

func TestPathPercents(t *testing.T) {
	p := buildSample()
	pcts := p.PathPercents("comp")
	if math.Abs(pcts["main/solve/dot"]-2000.0/120) > 1e-9 {
		t.Fatalf("dot %%M = %g", pcts["main/solve/dot"])
	}
	if math.Abs(pcts["main"]-10000.0/120) > 1e-9 {
		t.Fatalf("main %%M = %g", pcts["main"])
	}
}

func TestMCMapNormalisesByTime(t *testing.T) {
	p := buildSample()
	mc := p.MCMap()
	if v := mc["mpi|main/solve/MPI_Send"]; math.Abs(v-20) > 1e-12 {
		t.Fatalf("MCMap mpi entry = %g, want 20", v)
	}
	if v := mc["time|main"]; math.Abs(v-55) > 1e-12 { // (10+100)/200
		t.Fatalf("MCMap time|main = %g, want 55", v)
	}
}

func TestTopPathsSorted(t *testing.T) {
	p := buildSample()
	top := p.TopPaths("time", 2)
	if len(top) != 2 {
		t.Fatalf("TopPaths returned %d entries", len(top))
	}
	if top[0].Path != "main" || top[0].Percent < top[1].Percent {
		t.Fatalf("TopPaths order wrong: %+v", top)
	}
}

func TestExclusiveMetric(t *testing.T) {
	p := buildSample()
	// time total 200, children comp 120 + mpi 40 -> exclusive 40.
	if got := p.ExclusiveMetric("time"); math.Abs(got-40) > 1e-12 {
		t.Fatalf("exclusive time = %g, want 40", got)
	}
	if got := p.ExclusiveMetric("comp"); got != 120 {
		t.Fatalf("leaf exclusive = %g, want its total 120", got)
	}
	if got := p.ExclusiveMetric("nope"); got != 0 {
		t.Fatalf("unknown metric = %g", got)
	}
}

func TestMeanAveragesProfiles(t *testing.T) {
	a := buildSample()
	b := buildSample()
	bTime, _ := b.MetricByName("time")
	b.Add(bTime, b.internPathString("main"), 0, 20) // main@r0: 10 vs 30
	mean := Mean([]*Profile{a, b})
	timeID, ok := mean.MetricByName("time")
	if !ok {
		t.Fatal("mean lost the time metric")
	}
	main := mean.internPathString("main")
	if got := mean.Value(timeID, main, 0); math.Abs(got-20) > 1e-12 {
		t.Fatalf("mean main@r0 = %g, want 20", got)
	}
	if got := mean.TotalByName("time"); math.Abs(got-210) > 1e-12 {
		t.Fatalf("mean time total = %g, want 210", got)
	}
}

func TestRoundTripJSON(t *testing.T) {
	p := buildSample()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Clock != p.Clock || got.NumLocs() != p.NumLocs() {
		t.Fatal("header mismatch after round trip")
	}
	for _, m := range []string{"time", "comp", "mpi"} {
		if got.TotalByName(m) != p.TotalByName(m) {
			t.Fatalf("metric %s total changed: %g vs %g", m, got.TotalByName(m), p.TotalByName(m))
		}
	}
	if got.MCMap()["mpi|main/solve/MPI_Send"] != p.MCMap()["mpi|main/solve/MPI_Send"] {
		t.Fatal("MCMap changed after round trip")
	}
}

func TestRenderOutputs(t *testing.T) {
	p := buildSample()
	var buf bytes.Buffer
	p.RenderMetricTree(&buf)
	out := buf.String()
	if !strings.Contains(out, "time") || !strings.Contains(out, "comp") {
		t.Fatalf("metric tree missing entries:\n%s", out)
	}
	if !strings.Contains(out, "100.00%T") {
		t.Fatalf("metric tree missing root percent:\n%s", out)
	}
	buf.Reset()
	p.RenderCallTree(&buf, "comp", 5)
	if !strings.Contains(buf.String(), "main/solve/dot") {
		t.Fatalf("call tree missing path:\n%s", buf.String())
	}
	buf.Reset()
	p.RenderLocations(&buf, "time")
	if !strings.Contains(buf.String(), "r1t0") {
		t.Fatalf("locations view missing location:\n%s", buf.String())
	}
	if s := p.Summary(); !strings.Contains(s, "2 metrics") && !strings.Contains(s, "3 metrics") {
		t.Fatalf("summary odd: %s", s)
	}
}

func TestZeroAddIsNoop(t *testing.T) {
	p := New("tsc", []string{"l0"})
	m := p.AddMetric("time", "", NoParent)
	path := p.Path(NoParent, "main")
	p.Add(m, path, 0, 0)
	if len(p.ByPath(m)) != 0 {
		t.Fatal("zero add allocated severity storage")
	}
}

// TestTotalIgnoresMapOrder: float addition is not associative, so with
// severities of mixed magnitude only a fixed summation order gives one
// answer.  Fifty calls must agree bit for bit.
func TestTotalIgnoresMapOrder(t *testing.T) {
	p := New("tsc", []string{"r0t0"})
	m := p.AddMetric("time", "", NoParent)
	root := p.Path(NoParent, "main")
	for i, v := range []float64{1e16, 1, -1e16, 1, 1, 1e16, 1, 1} {
		p.Add(m, p.Path(root, fmt.Sprintf("f%d", i)), 0, v)
	}
	want := p.Total(m)
	for i := 0; i < 50; i++ {
		if got := p.Total(m); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Total = %v, first call gave %v", i, got, want)
		}
	}
	// Reports call Total many times per profile; the fixed order must
	// not cost an allocation.
	if a := testing.AllocsPerRun(20, func() { p.Total(m) }); a != 0 {
		t.Fatalf("Total allocates %v times per call, want 0", a)
	}
}
