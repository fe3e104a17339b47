// Package obs is the simulator's self-observability layer: typed
// metrics with atomic hot-path updates, a study progress reporter and a
// timeline annotation collector.  The paper's whole argument rests on
// measuring the measurement system — Score-P's dilation, per-mode
// overhead, wait-state attribution — and this package gives the
// reproduction the same property: every run can self-report what its
// kernel, runtime and study harness did.
//
// The package is stdlib-only and imports nothing from the repository,
// so every subsystem (vtime, simmpi, faults, experiment, runcache) can
// depend on it without cycles.
//
// # The observe-only invariant
//
// Metrics, progress lines and timeline annotations must NEVER
// feed back into simulation state.  Instrumented code may increment a
// counter or emit a sample, but no simulation decision — a scheduling
// choice, a timestamp, a trace byte — may read one.  The invariant is
// enforced structurally (handles expose no hooks back into callers) and
// empirically: internal/experiment asserts byte-identical traces and
// profiles with metrics on and off.
//
// # Nil-safety
//
// Every handle method is safe on a nil receiver and does nothing, and a
// nil *Registry hands out nil handles.  Instrumented hot paths therefore
// carry no "is observability on?" branches beyond the nil check inside
// the handle itself, and disabling observability is the zero value.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.  Inc and Add are
// safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.  No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.  No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level that also tracks its high-water mark.
// Set and Add are safe for concurrent use and allocation-free.
type Gauge struct {
	cur atomic.Int64
	max atomic.Int64
}

// Set records the current level and raises the high-water mark if v
// exceeds it.  No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.cur.Store(v)
	g.raise(v)
}

// Add shifts the current level by d (d may be negative) and raises the
// high-water mark if the new level exceeds it.  No-op on a nil gauge.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.raise(g.cur.Add(d))
}

func (g *Gauge) raise(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.cur.Load()
}

// Max returns the high-water mark (0 on a nil gauge).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Histogram counts observations into fixed buckets.  Observe is safe
// for concurrent use and allocation-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; len(counts) == len(bounds)+1
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one value.  No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry is a named collection of metrics.  Handles are interned:
// asking twice for the same name returns the same handle, so subsystems
// instantiated per job (kernels, worlds, injectors) aggregate into one
// set of totals.  All methods are safe for concurrent use, and a nil
// *Registry hands out nil (no-op) handles.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter interns the named counter (nil on a nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge interns the named gauge (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram interns the named histogram with the given ascending bucket
// upper bounds (nil on a nil registry).  The bounds of the first
// interning win; later calls return the existing histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
		r.histograms[name] = h
	}
	return h
}

// CounterSnap is one counter's value at snapshot time.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge's level and high-water mark at snapshot time.
type GaugeSnap struct {
	Max   int64  `json:"max"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSnap is one histogram's distribution at snapshot time.
// Buckets[i] counts observations at or below Bounds[i]; the final
// bucket counts everything above the last bound.
type HistogramSnap struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Count   uint64    `json:"count"`
	Name    string    `json:"name"`
	Sum     float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry, with every section
// sorted by metric name so its renderings are deterministic.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

// Snapshot copies the registry's current values, sorted by name.  A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value(), Max: g.Max()})
	}
	for name, h := range r.histograms {
		buckets := make([]uint64, len(h.counts))
		for i := range h.counts {
			buckets[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, HistogramSnap{
			Name: name, Bounds: append([]float64(nil), h.bounds...),
			Buckets: buckets, Count: h.Count(), Sum: h.Sum(),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteJSON renders the snapshot as indented JSON with a trailing
// newline.  Struct field order and the sorted sections make the bytes
// deterministic for equal values.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteText renders the snapshot as expvar-style "name value" lines,
// one metric per line, sorted by name within each section.  Gauges emit
// a companion "<name>_max" line; histograms emit "<name>_count" and
// "<name>_sum".
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%s %d\n%s_max %d\n", g.Name, g.Value, g.Name, g.Max); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "%s_count %d\n%s_sum %g\n", h.Name, h.Count, h.Name, h.Sum); err != nil {
			return err
		}
	}
	return nil
}
