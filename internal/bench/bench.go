// Package bench defines the repo's performance-tracking benchmarks as
// importable workloads, so the same workload bodies back both the
// `go test -bench` micro-benchmarks (bench_test.go) and the standalone
// trajectory harness (cmd/ltbench) that records BENCH_<label>.json
// files.  Keeping one definition per workload guarantees that the
// numbers ltbench commits to the repo and the numbers a developer sees
// from `go test -bench` measure the same code path.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// now is the harness's wall-clock source.  Benchmarking is inherently a
// wall-clock activity, so this read is sanctioned; simulation results
// never depend on it.
var now = time.Now //detlint:allow wallclock

// Instance is one prepared workload: Op executes one benchmark
// operation, and Events is the number of substrate events (simulated
// actions, trace events) a single op processes, 0 when the notion does
// not apply.  Close, when non-nil, removes what Make left on disk.
type Instance struct {
	Op     func() error
	Events int64
	Close  func()
}

// Measurement is the result of timing one workload instance.
type Measurement struct {
	Name         string  `json:"name"`
	N            int     `json:"n"`              // iterations measured
	NsPerOp      float64 `json:"ns_per_op"`      //
	BytesPerOp   float64 `json:"bytes_per_op"`   // heap bytes allocated per op
	AllocsPerOp  float64 `json:"allocs_per_op"`  // heap allocations per op
	EventsPerSec float64 `json:"events_per_sec"` // 0 when Events is 0
}

// Measure times the instance: it calibrates an iteration count that
// fills roughly target wall time, then reports per-op duration and
// allocation statistics for the final calibration round (the same
// strategy the testing package uses).  One warm-up op runs first so
// lazily-initialised state is not billed to the measurement.
func Measure(name string, ins *Instance, target time.Duration) (Measurement, error) {
	if err := ins.Op(); err != nil {
		return Measurement{}, fmt.Errorf("bench %s: warm-up: %w", name, err)
	}
	n := 1
	for {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := now()
		for i := 0; i < n; i++ {
			if err := ins.Op(); err != nil {
				return Measurement{}, fmt.Errorf("bench %s: %w", name, err)
			}
		}
		elapsed := now().Sub(start)
		runtime.ReadMemStats(&after)
		if elapsed >= target || n >= 1e8 {
			m := Measurement{
				Name:        name,
				N:           n,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
			}
			if ins.Events > 0 && elapsed > 0 {
				m.EventsPerSec = float64(ins.Events) * float64(n) / elapsed.Seconds()
			}
			return m, nil
		}
		// Predict the iteration count that fills the target, bounded to
		// at most 10x growth per round (testing package heuristic).
		next := n
		if elapsed > 0 {
			next = int(float64(n) * 1.2 * float64(target) / float64(elapsed))
		}
		if next < n+1 {
			next = n + 1
		}
		if next > 10*n {
			next = 10 * n
		}
		n = next
	}
}

// Median aggregates repeated measurements of one workload into a single
// robust measurement: the median of each statistic, taken independently
// (ns/op medians guard against one noisy rep; allocs/op is near-constant
// anyway).
func Median(ms []Measurement) Measurement {
	if len(ms) == 0 {
		return Measurement{}
	}
	med := func(get func(Measurement) float64) float64 {
		vs := make([]float64, len(ms))
		for i, m := range ms {
			vs[i] = get(m)
		}
		sort.Float64s(vs)
		mid := len(vs) / 2
		if len(vs)%2 == 1 {
			return vs[mid]
		}
		return (vs[mid-1] + vs[mid]) / 2
	}
	out := ms[0]
	out.NsPerOp = med(func(m Measurement) float64 { return m.NsPerOp })
	out.BytesPerOp = med(func(m Measurement) float64 { return m.BytesPerOp })
	out.AllocsPerOp = med(func(m Measurement) float64 { return m.AllocsPerOp })
	out.EventsPerSec = med(func(m Measurement) float64 { return m.EventsPerSec })
	return out
}
