package main

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the public function it calls.  Spans nest through parent;
// the jobs of one pool are concurrent children of that pool's span.
type span struct {
	name   string
	parent int // index of the enclosing span, -1 for a root
	start  time.Duration
	end    time.Duration
	// events is the number of trace events the call recorded, read,
	// analyzed or stored; workers is the pool width of a "pool" span.
	events  int64
	workers int
	// key pairs an instrumented run with its same-seed reference run.
	key string
	// allocBytes and allocObjs are the heap allocations made between the
	// span's start and end, children included; only an allocation ledger
	// (a one-worker replay, where the process-wide counters belong to
	// this span alone) fills them.
	allocBytes, allocObjs uint64
}

// ledger keeps the spans of one traced replay in memory, plus the counts
// made at the same layer boundaries: the simulator's own counters through
// reg, and the cache and pool outcomes the replay observes.
type ledger struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	allocs bool
	reg    *obs.Registry
	// counts holds outcomes the replay counted (cache hits, retries, ...)
	// and refs the host time of reference runs made outside the replay.
	counts map[string]int64
	refs   map[string]time.Duration
}

// newLedger starts an empty ledger.  With allocs set every span boundary
// reads the runtime's allocation counters, which is exact only when no
// other goroutine allocates meanwhile: use it for one-worker replays.
func newLedger(allocs bool) *ledger {
	return &ledger{
		t0: hostNow(), spans: make([]span, 0, 4096), allocs: allocs, reg: obs.NewRegistry(),
		counts: make(map[string]int64), refs: make(map[string]time.Duration),
	}
}

// add accumulates a count.
func (l *ledger) add(name string, n int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts[name] += n
}

// setRef records the host time of a reference run made outside the
// replay (the propagation set-up's sizing runs), keyed like runKey.
func (l *ledger) setRef(key string, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refs[key] = d
}

// registry returns the counter registry handed to the simulated runs
// (nil for a nil ledger, which makes every counter inert).
func (l *ledger) registry() *obs.Registry {
	if l == nil {
		return nil
	}
	return l.reg
}

// begin opens a span under parent and returns its index.  A nil ledger
// records nothing and returns -1.
func (l *ledger) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := span{name: name, parent: parent}
	if l.allocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.allocBytes, s.allocObjs = ms.TotalAlloc, ms.Mallocs
	}
	s.start = hostNow().Sub(l.t0)
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// end closes span id, recording the events it handled.
func (l *ledger) end(id int, events int64) {
	if l == nil {
		return
	}
	now := hostNow().Sub(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id]
	s.end, s.events = now, events
	if l.allocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.allocBytes, s.allocObjs = ms.TotalAlloc-s.allocBytes, ms.Mallocs-s.allocObjs
	}
}

// do runs f inside a span named name; f returns the events it handled.
func (l *ledger) do(name string, parent int, f func() int64) {
	id := l.begin(name, parent)
	l.end(id, f())
}

// annotate sets the pairing key or pool width of an open span.
func (l *ledger) annotate(id int, key string, workers int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].key, l.spans[id].workers = key, workers
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.  Concurrent children (the jobs
// of a pool) are merged first, so overlap is never subtracted twice and a
// self time cannot go negative.
func (l *ledger) selfTimes() []time.Duration {
	kids := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			ivs = append(ivs, [2]time.Duration{l.spans[k].start, l.spans[k].end})
		}
		self[i] = s.end - s.start - covered(ivs)
	}
	return self
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, hi time.Duration
	lo := time.Duration(-1)
	for _, iv := range ivs {
		switch {
		case lo < 0:
			lo, hi = iv[0], iv[1]
		case iv[0] > hi:
			total += hi - lo
			lo, hi = iv[0], iv[1]
		case iv[1] > hi:
			hi = iv[1]
		}
	}
	if lo >= 0 {
		total += hi - lo
	}
	return total
}

// layerTotals sums self time, events and self allocations per span name.
type layerTotals struct {
	count                 int
	busy                  time.Duration
	events                int64
	allocBytes, allocObjs uint64
}

// totals aggregates the ledger by span name.  Allocations are self
// allocations, like self times: a job's total minus its children's.
func (l *ledger) totals() map[string]*layerTotals {
	self := l.selfTimes()
	childBytes := make([]uint64, len(l.spans))
	childObjs := make([]uint64, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			childBytes[s.parent] += s.allocBytes
			childObjs[s.parent] += s.allocObjs
		}
	}
	out := make(map[string]*layerTotals)
	for i, s := range l.spans {
		t := out[s.name]
		if t == nil {
			t = &layerTotals{}
			out[s.name] = t
		}
		t.count++
		t.busy += self[i]
		t.events += s.events
		if s.allocBytes >= childBytes[i] {
			t.allocBytes += s.allocBytes - childBytes[i]
			t.allocObjs += s.allocObjs - childObjs[i]
		}
	}
	return out
}

// passWall is the duration of the ledger's root pass spans.
func (l *ledger) passWall() time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		if s.name == "pass" {
			d += s.end - s.start
		}
	}
	return d
}

// structural spans group work; every other span is a layer call.
var structural = map[string]bool{"pass": true, "study": true, "pool": true, "job": true}

// layerMetrics derives the per-layer ledger: busy times, counts and
// pool figures averaged per traced replay, per-event time ratios from the
// traced replays, and per-event allocation ratios from the allocation
// replay.
func layerMetrics(leds []*ledger, alloc *ledger) map[string]float64 {
	n := float64(len(leds))
	sum := make(map[string]*layerTotals)
	counts := make(map[string]float64)
	var capacity, jobBusy, coverage float64
	var refBusy, measBusy time.Duration
	var measEvents int64
	for _, l := range leds {
		for name, t := range l.totals() {
			s := sum[name]
			if s == nil {
				s = &layerTotals{}
				sum[name] = s
			}
			s.count += t.count
			s.busy += t.busy
			s.events += t.events
		}
		for name, v := range l.counts {
			counts[name] += float64(v)
		}
		for _, c := range []string{
			"vtime_steps", "vtime_posts", "vtime_resettles", "vtime_dirty_flushes",
			"simmpi_messages", "simmpi_message_bytes", "simmpi_coll_rounds", "simmpi_piggyback_syncs",
			"faults_injections",
		} {
			counts[c] += float64(l.reg.Counter(c).Value())
		}
		c, b := l.poolLoad()
		capacity += c
		jobBusy += b
		coverage += l.coverage()
		rb, mb, me := l.measureCost()
		refBusy += rb
		measBusy += mb
		measEvents += me
	}
	get := func(name string) *layerTotals {
		if t := sum[name]; t != nil {
			return t
		}
		return &layerTotals{}
	}
	busy := func(name string) float64 { return get(name).busy.Seconds() / n }
	nsPer := func(name string) float64 {
		t := get(name)
		return ratio(float64(t.busy.Nanoseconds()), float64(t.events))
	}
	at := alloc.totals()
	perEvent := func(name string, objs bool) float64 {
		t := at[name]
		if t == nil {
			return 0
		}
		if objs {
			return ratio(float64(t.allocObjs), float64(t.events))
		}
		return ratio(float64(t.allocBytes), float64(t.events))
	}
	var reportBusy time.Duration
	for name, t := range sum {
		if strings.HasPrefix(name, "report.") {
			reportBusy += t.busy
		}
	}
	run, ref := get("experiment.run"), get("experiment.ref_run")
	put := get("runcache.put")
	return map[string]float64{
		"bench.span_coverage":             coverage / n,
		"experiment.run_busy_s":           busy("experiment.run"),
		"experiment.ref_run_busy_s":       (ref.busy + refBusy).Seconds() / n,
		"experiment.run_ns_per_event":     nsPer("experiment.run"),
		"experiment.run_bytes_per_event":  perEvent("experiment.run", false),
		"experiment.run_allocs_per_event": perEvent("experiment.run", true),
		"measure.ns_per_event":            ratio(float64(measBusy.Nanoseconds()), float64(measEvents)),
		"vtime.steps":                     counts["vtime_steps"] / n,
		"vtime.posts":                     counts["vtime_posts"] / n,
		"vtime.resettles":                 counts["vtime_resettles"] / n,
		"vtime.dirty_flushes":             counts["vtime_dirty_flushes"] / n,
		"vtime.ns_per_step":               ratio(float64((run.busy + ref.busy).Nanoseconds()), counts["vtime_steps"]),
		"simmpi.messages":                 counts["simmpi_messages"] / n,
		"simmpi.message_bytes":            counts["simmpi_message_bytes"] / n,
		"simmpi.coll_rounds":              counts["simmpi_coll_rounds"] / n,
		"simmpi.piggyback_syncs":          counts["simmpi_piggyback_syncs"] / n,
		"faults.injections":               counts["faults_injections"] / n,
		"trace.events":                    float64(run.events+get("runcache.get").events) / n,
		"scalasca.busy_s":                 busy("scalasca.analyze"),
		"scalasca.ns_per_event":           nsPer("scalasca.analyze"),
		"scalasca.bytes_per_event":        perEvent("scalasca.analyze", false),
		"tracecheck.busy_s":               busy("tracecheck.verify"),
		"tracecheck.ns_per_event":         nsPer("tracecheck.verify"),
		"tracecheck.bytes_per_event":      perEvent("tracecheck.verify", false),
		"propagation.busy_s":              busy("propagation.analyze"),
		"propagation.ns_per_event":        nsPer("propagation.analyze"),
		"report.busy_s":                   reportBusy.Seconds() / n,
		"runcache.put_busy_s":             busy("runcache.put"),
		"runcache.put_bytes_per_event":    perEvent("runcache.put", false),
		"runcache.entry_bytes_per_event":  ratio(counts["runcache.disk_bytes"], float64(put.events)),
		"runcache.get_busy_s":             busy("runcache.get"),
		"runcache.get_ns_per_event":       nsPer("runcache.get"),
		"runcache.hits":                   counts["runcache.hits"] / n,
		"runcache.misses":                 counts["runcache.misses"] / n,
		"pool.jobs":                       float64(get("job").count) / n,
		"pool.retried":                    counts["pool.retried"] / n,
		"pool.dropped":                    counts["pool.dropped"] / n,
		"pool.utilization":                ratio(jobBusy, capacity),
		"pool.idle_s":                     (capacity - jobBusy) / n,
	}
}

// poolLoad returns the pools' capacity (workers × pool wall) and the
// job-seconds their jobs kept busy, both in seconds.
func (l *ledger) poolLoad() (capacity, busy float64) {
	for _, s := range l.spans {
		switch s.name {
		case "pool":
			capacity += float64(s.workers) * (s.end - s.start).Seconds()
		case "job":
			busy += (s.end - s.start).Seconds()
		}
	}
	return capacity, busy
}

// coverage is the share of the pass wall time during which at least one
// layer span was open.
func (l *ledger) coverage() float64 {
	var ivs [][2]time.Duration
	for _, s := range l.spans {
		if !structural[s.name] {
			ivs = append(ivs, [2]time.Duration{s.start, s.end})
		}
	}
	return ratio(covered(ivs).Seconds(), l.passWall().Seconds())
}

// measureCost returns the reference runs' host time made outside the
// replay, and the measurement layer's cost: instrumented run time minus
// the mean same-seed reference run time, summed over instrumented runs
// that have a reference, with those runs' events.
func (l *ledger) measureCost() (outside, cost time.Duration, events int64) {
	refSum := make(map[string]time.Duration)
	refN := make(map[string]int)
	for _, s := range l.spans {
		if s.name == "experiment.ref_run" {
			refSum[s.key] += s.end - s.start
			refN[s.key]++
		}
	}
	for k, d := range l.refs {
		outside += d
		refSum[k] += d
		refN[k]++
	}
	for _, s := range l.spans {
		if s.name != "experiment.run" || refN[s.key] == 0 {
			continue
		}
		cost += s.end - s.start - refSum[s.key]/time.Duration(refN[s.key])
		events += s.events
	}
	return outside, cost, events
}
