// Command perfbench is the repository's study-level benchmark.  It runs
// one of four job grids — verify, report-cold, report-warm, propagation —
// through the public entry points of internal/experiment, checks every
// pass's outputs, and prints its metrics by name with units; the last
// line of standard output is one JSON object.
//
//	perfbench --workload verify --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --trace 1    # every workload, one table each
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it replays the grid layer by layer inside spans and
// reports the per-layer ledger.  run.sh builds and runs it from a
// checkout; README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// defaultSeed is the seed whose outputs golden.json pins.
	defaultSeed = 1
	// An untraced run sets up at least setupRounds times and for at
	// least setupSeconds, and reports the median as setup_s; cheap
	// set-ups thus get enough rounds to steady their median.
	setupRounds  = 3
	setupSeconds = 1.0
	// coverageBound flags a traced run whose layer spans cover less of
	// the traced pass than this share of its wall time.
	coverageBound = 0.9
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // shrunken grids, for the tests
	work     string
}

// result is one workload's checked measurement.
type result struct {
	workload          string
	attempted, failed int
	digest            string
	passWalls         []float64 // measured seconds of each untraced pass
	metrics           map[string]float64
	defs              []metricDef
	warnings          []string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run (at least one pass)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced replay")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench-work", "scratch directory for run caches, removed on exit")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if (traceFlag != 0 && traceFlag != 1) || cfg.workload == "" {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures the configured workloads and writes their report to w,
// ending with the one-line JSON result.
func run(w io.Writer, cfg config) error {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	}
	var results []*result
	for _, name := range names {
		wl, err := workloadByName(name)
		if err != nil {
			return err
		}
		res, err := measureWorkload(wl, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printResult(w, cfg, res)
		results = append(results, res)
	}
	return writeJSON(w, results)
}

// measureWorkload sets a workload up, measures it for cfg.seconds and
// checks every pass.
func measureWorkload(wl workload, cfg config) (*result, error) {
	env := &runEnv{seed: cfg.seed, tiny: cfg.tiny, traced: cfg.trace, dir: cfg.work}
	// A run killed earlier may have left caches behind; a cold pass must
	// never find them.
	if err := os.RemoveAll(env.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)
	rounds, minSeconds := setupRounds, setupSeconds
	if cfg.trace {
		rounds, minSeconds = 1, 0
	}
	var g grid
	var setups []float64
	for spent := 0.0; len(setups) < rounds || spent < minSeconds; {
		if g != nil {
			g.close()
		}
		// Each set-up starts from a collected heap, like each pass.
		debug.FreeOSMemory()
		sw := startStopwatch()
		var err error
		if g, err = wl.setup(env); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		net, _ := sw.elapsed()
		setups = append(setups, net.Seconds())
		spent += setups[len(setups)-1]
	}
	defer g.close()
	want, err := g.expected()
	if err != nil {
		return nil, err
	}
	golden := ""
	if cfg.seed == defaultSeed && !cfg.tiny {
		if golden, err = goldenDigest(wl.golden); err != nil {
			return nil, err
		}
	}
	ck := &checker{want: want, golden: golden}
	res := &result{workload: wl.name, metrics: make(map[string]float64)}
	if cfg.trace {
		err = measureTraced(g, cfg, ck, res)
	} else {
		err = measureUntraced(g, cfg, ck, res)
		res.metrics["setup_s"] = median(setups)
	}
	res.attempted, res.failed, res.digest = ck.attempted, ck.failed, ck.digest()
	return res, err
}

// checker counts the jobs of every pass and the ones that failed.
type checker struct {
	want              []unit
	golden            string
	attempted, failed int
}

// digest is the combined digest of the reference units.
func (c *checker) digest() string { return combined(c.want) }

// check counts o against the reference units (taking o as the reference
// when there is none yet) and against the golden digest.
func (c *checker) check(o outcome) {
	if c.want == nil {
		c.want = o.units
	}
	failed := o.failures(c.want)
	if c.golden != "" && combined(o.units) != c.golden {
		failed = o.jobs
	}
	c.attempted += o.jobs
	c.failed += failed
}

func measureUntraced(g grid, cfg config, ck *checker, res *result) error {
	var walls, rates, peaks []float64
	var measured time.Duration
	var bytes, allocs uint64
	var events int64
	for len(walls) == 0 || measured.Seconds() < cfg.seconds {
		var m meter
		o, err := g.pass(&m)
		if err != nil {
			return err
		}
		peaks = append(peaks, m.peakMB)
		ck.check(o)
		measured += m.wall
		walls = append(walls, m.wall.Seconds())
		rates = append(rates, float64(o.events)/m.wall.Seconds())
		bytes += m.bytes
		allocs += m.allocs
		events += o.events
	}
	res.defs = endToEnd
	res.passWalls = walls
	res.metrics["wall_s"] = median(walls)
	res.metrics["events_per_s"] = median(rates)
	res.metrics["peak_rss_mb"] = median(peaks)
	res.metrics["alloc_bytes_per_event"] = ratio(float64(bytes), float64(events))
	res.metrics["allocs_per_event"] = ratio(float64(allocs), float64(events))
	return nil
}

// measureTraced alternates untraced passes and traced replays on the
// same pool width until cfg.seconds are measured, then makes one
// allocation replay on a single worker, and derives the per-layer
// ledger from the replays.
func measureTraced(g grid, cfg config, ck *checker, res *result) error {
	var untraced, traced []float64
	var leds []*ledger
	var measured time.Duration
	for len(leds) == 0 || measured.Seconds() < cfg.seconds {
		var m meter
		o, err := g.pass(&m)
		if err != nil {
			return err
		}
		ck.check(o)
		debug.FreeOSMemory() // start the replay from a collected heap, like the pass
		led := newLedger(false)
		if o, err = g.replay(led, poolWorkers); err != nil {
			return err
		}
		ck.check(o)
		// Spans time raw host seconds, so the overhead compares raw walls.
		wall := led.passWall()
		untraced = append(untraced, m.raw.Seconds())
		traced = append(traced, wall.Seconds())
		leds = append(leds, led)
		measured += m.raw + wall
	}
	alloc := newLedger(true)
	o, err := g.replay(alloc, 1)
	if err != nil {
		return err
	}
	ck.check(o)
	res.defs = perLayer
	res.metrics = layerMetrics(leds, alloc)
	res.metrics["bench.tracing_overhead_frac"] = median(traced)/median(untraced) - 1
	if c := res.metrics["bench.span_coverage"]; c < coverageBound {
		res.warnings = append(res.warnings, fmt.Sprintf(
			"layer spans cover %.3f of the traced pass, below the %.2f bound", c, coverageBound))
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// envStamp records where a result was measured.
type envStamp struct {
	NumCPU        int    `json:"numcpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	Seed          int64  `json:"seed"`
	PoolWorkers   int    `json:"pool_workers"`
	KernelWorkers int    `json:"kernel_workers"`
}

// commit is the source revision, set at link time by run.sh.
var commit = "unknown"

func stamp(cfg config) envStamp {
	return envStamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: cfg.seed, PoolWorkers: poolWorkers, KernelWorkers: kernelWorkers,
	}
}

// printResult writes one workload's human-readable block: the run
// environment, every metric with its unit, and the failure share.
func printResult(w io.Writer, cfg config, res *result) {
	env, _ := json.Marshal(stamp(cfg))
	fmt.Fprintf(w, "workload %s  env %s\n", res.workload, env)
	for _, d := range res.defs {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
	fmt.Fprintf(w, "  %-34s %16.6g %s   (%d of %d jobs)\n", "failed_frac",
		ratio(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)
	fmt.Fprintf(w, "  output digest %s\n", res.digest)
	if len(res.passWalls) > 0 {
		fmt.Fprintf(w, "  %d passes, wall_s each:", len(res.passWalls))
		for _, v := range res.passWalls {
			fmt.Fprintf(w, " %.4g", v)
		}
		fmt.Fprintln(w)
	}
	for _, msg := range res.warnings {
		fmt.Fprintf(w, "  WARNING: %s\n", msg)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", res.workload, msg)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeJSON prints the result line.  With several workloads, metric
// names carry a "workload:" prefix.
func writeJSON(w io.Writer, results []*result) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: make(map[string]jsonMetric)}
	for _, res := range results {
		out.Attempted += res.attempted
		out.Failed += res.failed
		for _, d := range res.defs {
			name := d.name
			if len(results) > 1 {
				name = res.workload + ":" + name
			}
			out.Metrics[name] = jsonMetric{res.metrics[d.name], d.unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(out); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}
