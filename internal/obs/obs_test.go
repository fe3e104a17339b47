package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: every handle and the registry itself must be inert at
// their zero/nil values, so instrumented code never branches on
// "observability enabled".
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram has observations")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("y") != nil || r.Histogram("z", 1) != nil {
		t.Fatal("nil registry handed out a live handle")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot is not empty")
	}
	var p *Progress
	p.Start(10, "jobs")
	p.JobDone(1)
	p.Finish()
	var tl *Timeline
	tl.AddMark(1, "m", "")
	tl.AddSample(1, "t", 2)
	if tl.Marks() != nil || tl.Samples() != nil {
		t.Fatal("nil timeline holds data")
	}
}

// TestRegistryRace hammers shared handles from concurrent goroutines the
// way pool workers do; run with -race (CI does) to prove the hot paths
// are data-race free, and check the totals to prove no increment is
// lost.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Intern inside the worker: pool jobs build their metric
			// structs concurrently too.
			c := r.Counter("jobs")
			g := r.Gauge("heap")
			h := r.Histogram("cost", 1, 10, 100)
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("jobs").Value(); got != workers*per {
		t.Fatalf("counter lost increments: got %d, want %d", got, workers*per)
	}
	if got := r.Histogram("cost").Count(); got != workers*per {
		t.Fatalf("histogram lost observations: got %d, want %d", got, workers*per)
	}
	if max := r.Gauge("heap").Max(); max != per-1 {
		t.Fatalf("gauge high-water %d, want %d", max, per-1)
	}
}

// TestHotPathAllocs gates the instrumented kernel paths: metric updates
// must be allocation-free whether the handle is live or nil.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", 1, 2, 4, 8)
	var nilC *Counter
	var nilG *Gauge
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(7)
		g.Add(-1)
		nilC.Inc()
		nilG.Set(1)
	}); n != 0 {
		t.Fatalf("counter/gauge hot path allocates %g per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3.5) }); n != 0 {
		t.Fatalf("histogram observe allocates %g per run, want 0", n)
	}
}

// TestSnapshotDeterministic: same values in, byte-identical renderings
// out, regardless of interning order.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name).Add(uint64(len(name)))
		}
		r.Gauge("heap").Set(42)
		r.Histogram("cost", 1, 10).Observe(3)
		return r
	}
	a := build([]string{"zeta", "alpha", "mid"})
	b := build([]string{"mid", "zeta", "alpha"})
	var ja, jb, ta, tb bytes.Buffer
	if err := a.Snapshot().WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("JSON snapshots differ:\n%s\nvs\n%s", ja.String(), jb.String())
	}
	a.Snapshot().WriteText(&ta)
	b.Snapshot().WriteText(&tb)
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatalf("text snapshots differ:\n%s\nvs\n%s", ta.String(), tb.String())
	}
	// Sorted: alpha < mid < zeta in both renderings.
	txt := ta.String()
	if !(strings.Index(txt, "alpha") < strings.Index(txt, "mid") &&
		strings.Index(txt, "mid") < strings.Index(txt, "zeta")) {
		t.Fatalf("text snapshot not sorted by name:\n%s", txt)
	}
}

// TestHistogramSumIgnoresOrder: pool workers observe in the order they
// finish, so one set of values must give the same Sum bits in any order
// and from any number of goroutines.  The values mix magnitudes, so a
// float sum of them depends on the order.
func TestHistogramSumIgnoresOrder(t *testing.T) {
	vals := make([]float64, 1000)
	var exact float64
	for i := range vals {
		vals[i] = float64(i%97)*0.731 + 1/float64(i+3)
		exact += vals[i]
	}
	sum := func(observe func(h *Histogram)) float64 {
		h := NewRegistry().Histogram("h", 1, 10)
		observe(h)
		return h.Sum()
	}
	want := sum(func(h *Histogram) {
		for _, v := range vals {
			h.Observe(v)
		}
	})
	if d := math.Abs(want - exact); d > float64(len(vals))*sumQuantum {
		t.Fatalf("Sum %v is %g off the float sum %v", want, d, exact)
	}
	backward := sum(func(h *Histogram) {
		for i := len(vals) - 1; i >= 0; i-- {
			h.Observe(vals[i])
		}
	})
	if math.Float64bits(backward) != math.Float64bits(want) {
		t.Fatalf("reversed order: Sum %v, want %v", backward, want)
	}
	const workers = 4
	for run := 0; run < 5; run++ {
		got := sum(func(h *Histogram) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(vals); i += workers {
						h.Observe(vals[i])
					}
				}(w)
			}
			wg.Wait()
		})
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("run %d on %d goroutines: Sum %v, want %v", run, workers, got, want)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms[0]
	// SearchFloat64s: bucket i counts v <= bounds[i] (values equal to a
	// bound land in its bucket), last bucket counts v > last bound.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Count != 5 || s.Sum != 556.5 {
		t.Fatalf("count %d sum %g, want 5 and 556.5", s.Count, s.Sum)
	}
}
