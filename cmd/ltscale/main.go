// Command ltscale runs the preliminary scaling studies of §IV-B: each
// mini-app without instrumentation at a sweep of rank/thread splits,
// reporting run time, speedup and parallel efficiency.  The paper uses
// these studies to pick the interesting configurations for detailed
// analysis (for example, that TeaLeaf with 2 ranks x 64 threads is the
// optimal split of one node).
//
// Usage:
//
//	ltscale                     # all three mini-apps
//	ltscale -app TeaLeaf -reps 5
//	ltscale -j 4 -cache ~/.ltcache
//	ltscale -progress -metrics  # live ETA and a metrics dump, on stderr
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/runcache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltscale: ")
	app := flag.String("app", "", "restrict to one app: MiniFE, LULESH or TeaLeaf")
	reps := flag.Int("reps", 3, "repetitions per point")
	seed := flag.Int64("seed", 1, "noise seed")
	quick := flag.Bool("quick", false, "shrink the problems")
	workers := flag.Int("j", 0, "parallel simulations (0 = all CPUs); results are identical for any value")
	cacheDir := flag.String("cache", "", "serve repetitions from a run cache in this directory")
	progress := flag.Bool("progress", false, "report live sweep progress with ETA on stderr")
	metrics := flag.Bool("metrics", false, "dump simulator metrics to stderr after the run")
	flag.Parse()

	var cache *runcache.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = runcache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	var prog *obs.Progress
	if *progress {
		// Wall-clock time feeds only the stderr progress display, never
		// the simulation itself.
		prog = obs.NewProgress(os.Stderr, "ltscale", time.Now) //detlint:allow wallclock
	}

	sweeps := []struct {
		name   string
		base   string
		points [][2]int
	}{
		{"MiniFE (node splits)", "MiniFE-1", [][2]int{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {8, 4}, {8, 16}}},
		{"LULESH (rank cubes)", "LULESH-1", [][2]int{{1, 4}, {8, 4}, {27, 4}, {64, 4}}},
		{"TeaLeaf (one-node splits)", "TeaLeaf-2", [][2]int{{1, 128}, {2, 64}, {4, 32}, {8, 16}, {16, 8}, {32, 4}, {64, 2}, {128, 1}}},
	}
	if *app != "" {
		kept := sweeps[:0]
		for _, s := range sweeps {
			if strings.HasPrefix(s.base, *app) {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			log.Fatalf("-app %q matches no mini-app; want MiniFE, LULESH or TeaLeaf", *app)
		}
		sweeps = kept
	}
	for _, s := range sweeps {
		spec, err := experiment.SpecByName(s.base, experiment.Options{Quick: *quick})
		if err != nil {
			log.Fatal(err)
		}
		res, err := experiment.RunScaling(spec, s.points, experiment.ScalingOptions{
			Reps: *reps, Seed: *seed, Workers: *workers, Cache: cache,
			Metrics: reg, Progress: prog,
		})
		if err != nil {
			log.Fatal(err)
		}
		experiment.RenderScaling(os.Stdout, s.name, res.Points)
		for _, d := range res.Dropped {
			fmt.Printf("dropped: rep %d (seed %d): %s\n", d.Rep, d.Seed, d.Err)
		}
		os.Stdout.WriteString("\n")
	}
	if cache != nil {
		hits, misses := cache.Stats()
		log.Printf("run cache %s: %d hits, %d misses", cache.Dir(), hits, misses)
	}
	if reg != nil {
		if err := reg.Snapshot().WriteText(os.Stderr); err != nil {
			log.Print(err)
		}
	}
}
