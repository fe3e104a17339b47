package main

// metricDef names one reported metric.  The end-to-end set is what a
// user of the study tools sees and is measured with tracing off; the
// per-layer set comes from a separate traced replay.  BENCHMARK.json at
// the repository root lists the same names (the tests compare them).
type metricDef struct {
	name, unit string
}

// endToEnd is every metric a --trace 0 run prints.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_bytes_per_event", "B"},
	{"allocs_per_event", "count"},
	{"setup_s", "s"},
}

// perLayer is every metric a --trace 1 run prints.  Busy times and counts
// are per traced pass; per-event ratios divide a layer's busy time or
// allocations by the trace events that layer handled.
var perLayer = []metricDef{
	{"bench.tracing_overhead_frac", "ratio"},
	{"bench.span_coverage", "ratio"},
	{"experiment.run_busy_s", "s"},
	{"experiment.ref_run_busy_s", "s"},
	{"experiment.run_ns_per_event", "ns"},
	{"experiment.run_bytes_per_event", "B"},
	{"experiment.run_allocs_per_event", "count"},
	{"measure.ns_per_event", "ns"},
	{"vtime.steps", "count"},
	{"vtime.posts", "count"},
	{"vtime.resettles", "count"},
	{"vtime.dirty_flushes", "count"},
	{"vtime.ns_per_step", "ns"},
	{"simmpi.messages", "count"},
	{"simmpi.message_bytes", "B"},
	{"simmpi.coll_rounds", "count"},
	{"simmpi.piggyback_syncs", "count"},
	{"faults.injections", "count"},
	{"trace.events", "count"},
	{"scalasca.busy_s", "s"},
	{"scalasca.ns_per_event", "ns"},
	{"scalasca.bytes_per_event", "B"},
	{"tracecheck.busy_s", "s"},
	{"tracecheck.ns_per_event", "ns"},
	{"tracecheck.bytes_per_event", "B"},
	{"propagation.busy_s", "s"},
	{"propagation.ns_per_event", "ns"},
	{"report.busy_s", "s"},
	{"runcache.put_busy_s", "s"},
	{"runcache.put_bytes_per_event", "B"},
	{"runcache.entry_bytes_per_event", "B"},
	{"runcache.get_busy_s", "s"},
	{"runcache.get_ns_per_event", "ns"},
	{"runcache.hits", "count"},
	{"runcache.misses", "count"},
	{"pool.jobs", "count"},
	{"pool.retried", "count"},
	{"pool.dropped", "count"},
	{"pool.utilization", "ratio"},
	{"pool.idle_s", "s"},
}
