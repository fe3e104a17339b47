package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at the tiny size and parses its result line.
func runTiny(t *testing.T, workload string, trace bool) resultLine {
	t.Helper()
	var out bytes.Buffer
	cfg := config{workload: workload, seed: defaultSeed, trace: trace, tiny: true, work: t.TempDir()}
	if err := run(&out, cfg); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", workload, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var want, got []string
	for _, w := range f.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		got = append(got, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
}

// TestEmittedMetricsMatchBenchmarkFile runs every workload at the tiny
// size, untraced and traced, and compares the metric names and units each
// emits with BENCHMARK.json.
func TestEmittedMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	f := readBenchmarkFile(t)
	for _, tc := range []struct {
		trace bool
		defs  []struct{ Name, Unit string }
	}{{false, f.EndToEnd}, {true, f.PerLayer}} {
		want := make(map[string]string)
		for _, d := range tc.defs {
			want[d.Name] = d.Unit
		}
		for _, w := range workloads {
			res := runTiny(t, w.name, tc.trace)
			got := make(map[string]string)
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json lists %v", w.name, tc.trace, keys(got), keys(want))
			}
			if tc.trace {
				checkLedger(t, w.name, res)
			}
		}
	}
}

// checkLedger asserts what each workload's ledger must show.
func checkLedger(t *testing.T, workload string, res resultLine) {
	t.Helper()
	v := func(name string) float64 { return res.Metrics[name].Value }
	switch workload {
	case "verify":
		if v("tracecheck.busy_s") <= 0 || v("experiment.run_busy_s") <= 0 {
			t.Errorf("verify: tracecheck.busy_s %g, experiment.run_busy_s %g", v("tracecheck.busy_s"), v("experiment.run_busy_s"))
		}
	case "report-warm":
		if v("vtime.steps") != 0 || v("runcache.misses") != 0 || v("runcache.hits") == 0 {
			t.Errorf("report-warm: vtime.steps %g, runcache.misses %g, runcache.hits %g",
				v("vtime.steps"), v("runcache.misses"), v("runcache.hits"))
		}
	case "propagation":
		if v("faults.injections") <= 0 || v("propagation.busy_s") <= 0 {
			t.Errorf("propagation: faults.injections %g, propagation.busy_s %g", v("faults.injections"), v("propagation.busy_s"))
		}
	}
	if c := v("bench.span_coverage"); c <= 0 || c > 1 {
		t.Errorf("%s: span coverage %g outside (0, 1]", workload, c)
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSelfTimesNonNegative replays a tiny grid into a ledger and checks
// that no span's self time is negative, even for a pool whose jobs ran
// concurrently.
func TestSelfTimesNonNegative(t *testing.T) {
	env := &runEnv{seed: defaultSeed, tiny: true, traced: true, dir: t.TempDir()}
	for _, name := range []string{"verify", "propagation"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := w.setup(env)
		if err != nil {
			t.Fatal(err)
		}
		led := newLedger(false)
		if _, err := g.replay(led, poolWorkers); err != nil {
			t.Fatal(err)
		}
		g.close()
		self := led.selfTimes()
		for i, d := range self {
			if d < 0 {
				t.Errorf("%s: span %d (%s) self time %v", name, i, led.spans[i].name, d)
			}
		}
		if len(self) == 0 {
			t.Errorf("%s: replay recorded no spans", name)
		}
	}
}

func TestSelfTimeOfConcurrentChildren(t *testing.T) {
	l := newLedger(false)
	ms := time.Millisecond
	l.spans = []span{
		{name: "pool", parent: -1, start: 0, end: 10 * ms},
		{name: "job", parent: 0, start: 1 * ms, end: 6 * ms},
		{name: "job", parent: 0, start: 2 * ms, end: 8 * ms},
		{name: "job", parent: 0, start: 9 * ms, end: 10 * ms},
	}
	if got := l.selfTimes()[0]; got != 2*ms {
		t.Fatalf("pool self time %v, want 2ms (0-1 and 8-9 uncovered)", got)
	}
}

// TestSeedRepeatsDigestAndChangesInputs checks that a seed fixes the
// workload's inputs and outputs, and another seed changes them.
func TestSeedRepeatsDigestAndChangesInputs(t *testing.T) {
	digest := func(name string, seed int64) (string, *propGrid) {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := w.setup(&runEnv{seed: seed, tiny: true, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer g.close()
		var m meter
		o, err := g.pass(&m)
		if err != nil {
			t.Fatal(err)
		}
		pg, _ := g.(*propGrid)
		return combined(o.units), pg
	}
	for _, name := range []string{"verify", "propagation"} {
		a, ga := digest(name, 1)
		b, _ := digest(name, 1)
		c, gc := digest(name, 2)
		if a != b {
			t.Errorf("%s: seed 1 digests differ: %s vs %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", name, a)
		}
		if ga != nil && reflect.DeepEqual(ga.studies[0].plan, gc.studies[0].plan) {
			t.Errorf("%s: seeds 1 and 2 drew the same plan %+v", name, ga.studies[0].plan)
		}
	}
}

func TestGoldenDigestsPresent(t *testing.T) {
	for _, w := range workloads {
		d, err := goldenDigest(w.golden)
		if err != nil || len(d) != 64 {
			t.Errorf("%s: golden digest %q: %v", w.name, d, err)
		}
	}
}
