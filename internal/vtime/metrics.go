package vtime

import "repro/internal/obs"

// Metrics is the kernel's self-observability surface: scheduler
// counters updated on the hot path with allocation-free atomic
// increments.  All handles are nil-safe, so the zero Metrics (the
// default) observes nothing at zero cost beyond a nil check.
//
// Observe-only invariant: the kernel writes these counters and never
// reads them — no scheduling decision, timestamp or completion order
// may depend on observability being attached.  The experiment package
// asserts this with byte-identical golden traces, metrics on and off.
type Metrics struct {
	// Steps counts scheduling steps (virtual-time advances).
	Steps *obs.Counter
	// Completions counts actions completed.
	Completions *obs.Counter
	// Posts counts detached actions submitted via Post.
	Posts *obs.Counter
	// Resettles counts per-resource fluid-model resettles.
	Resettles *obs.Counter
	// DirtyFlushes counts dirty-set flushes that had work to do.
	DirtyFlushes *obs.Counter
	// HeapSize tracks the pending-action heap's size per step; its
	// high-water mark bounds the kernel's working set.
	HeapSize *obs.Gauge
}

// NewMetrics interns the kernel's metric names in r.  A nil registry
// yields inert handles, so callers can wire unconditionally.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		Steps:        r.Counter("vtime_steps"),
		Completions:  r.Counter("vtime_completions"),
		Posts:        r.Counter("vtime_posts"),
		Resettles:    r.Counter("vtime_resettles"),
		DirtyFlushes: r.Counter("vtime_dirty_flushes"),
		HeapSize:     r.Gauge("vtime_heap_size"),
	}
}

// SetMetrics attaches observability counters to the kernel.  Call
// before Run; the zero Metrics detaches.
func (k *Kernel) SetMetrics(m Metrics) { k.metrics = m }

// SetCapacityObserver installs an observe-only hook called whenever a
// resource is registered or its capacity changes, with the current
// virtual time, the resource name and the capacity now in force.  The
// Perfetto exporter uses it to build counter tracks of the fluid
// model's capacities (fault windows make them step).  The hook must not
// mutate simulation state.
func (k *Kernel) SetCapacityObserver(fn func(now float64, resource string, capacity float64)) {
	k.capObserver = fn
}
