// Command ltbench runs the repo's substrate and study benchmarks
// (internal/bench) several times, reports the median ns/op, B/op,
// allocs/op and events/sec of each, and writes the results to
// BENCH_<label>.json — the perf-trajectory record that lets any future
// optimisation PR show its before/after honestly.
//
// Usage:
//
//	ltbench -label pr4                 # full run, writes BENCH_pr4.json
//	ltbench -quick                     # CI smoke: short target, 2 reps
//	ltbench -bench Kernel -label dev   # only workloads matching a substring
//	ltbench -label pr4 -baseline BENCH_pr4-baseline.json
//	                                   # embed a pre-change baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

// File is the schema of a BENCH_<label>.json record.
type File struct {
	Label       string              `json:"label"`
	GoVersion   string              `json:"go_version"`
	GOOS        string              `json:"goos"`
	GOARCH      string              `json:"goarch"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	NumCPU      int                 `json:"numcpu"`
	Reps        int                 `json:"reps"`
	BenchtimeNs int64               `json:"benchtime_ns"`
	Results     []bench.Measurement `json:"results"`
	// Baseline, when present, is the same suite measured before the
	// change the label names — committed alongside so the delta is
	// reviewable without digging through git history.
	Baseline *File `json:"baseline,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltbench: ")
	label := flag.String("label", "dev", "benchmark label; output goes to BENCH_<label>.json")
	reps := flag.Int("reps", 5, "measurement repetitions per workload (median is reported)")
	benchtime := flag.Duration("benchtime", time.Second, "target wall time per measurement")
	quick := flag.Bool("quick", false, "CI smoke mode: 2 reps, 50ms benchtime")
	filter := flag.String("bench", "", "only run workloads whose name contains this substring")
	baseline := flag.String("baseline", "", "embed this previously-written BENCH json as the baseline")
	outDir := flag.String("o", ".", "directory for the BENCH_<label>.json output")
	noJSON := flag.Bool("nojson", false, "print the table only, write no file")
	flag.Parse()

	if *quick {
		*reps = 2
		*benchtime = 50 * time.Millisecond
	}
	out := &File{
		Label:       *label,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Reps:        *reps,
		BenchtimeNs: benchtime.Nanoseconds(),
	}
	var base *File
	if *baseline != "" {
		b, err := readFile(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		b.Baseline = nil // never nest more than one level
		base = b
		out.Baseline = b
	}

	fmt.Printf("%-22s %14s %12s %12s %14s\n", "workload", "ns/op", "B/op", "allocs/op", "events/sec")
	for _, w := range bench.Workloads() {
		if *filter != "" && !strings.Contains(w.Name, *filter) {
			continue
		}
		ins, err := w.Make()
		if err != nil {
			log.Fatalf("%s: setup: %v", w.Name, err)
		}
		ms := make([]bench.Measurement, 0, *reps)
		for r := 0; r < *reps; r++ {
			m, err := bench.Measure(w.Name, ins, *benchtime)
			if err != nil {
				log.Fatalf("%s: %v", w.Name, err)
			}
			ms = append(ms, m)
		}
		med := bench.Median(ms)
		out.Results = append(out.Results, med)
		fmt.Printf("%-22s %14.0f %12.0f %12.1f %14s%s\n",
			med.Name, med.NsPerOp, med.BytesPerOp, med.AllocsPerOp,
			eps(med.EventsPerSec), delta(base, med))
	}

	if *noJSON {
		return
	}
	path := fmt.Sprintf("%s/BENCH_%s.json", *outDir, *label)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func readFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &f, nil
}

func eps(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3g", v)
}

// delta annotates a result with its speed-up versus the baseline file.
func delta(base *File, m bench.Measurement) string {
	if base == nil {
		return ""
	}
	for _, b := range base.Results {
		if b.Name == m.Name && m.NsPerOp > 0 {
			return fmt.Sprintf("   [%.2fx vs %s]", b.NsPerOp/m.NsPerOp, base.Label)
		}
	}
	return ""
}
