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

	"repro/cmd/internal/studycli"
	"repro/internal/experiment"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltscale: ")
	app := flag.String("app", "", "restrict to one app: MiniFE, LULESH or TeaLeaf")
	reps := flag.Int("reps", 3, "repetitions per point")
	seed := flag.Int64("seed", 1, "noise seed")
	quick := flag.Bool("quick", false, "shrink the problems")
	pool := studycli.Flags(flag.CommandLine, studycli.MetricsFlag)
	flag.Parse()
	if err := pool.Open("ltscale"); err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

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
			Reps: *reps, Seed: *seed,
			Workers: pool.Workers, Cache: pool.Cache, Metrics: pool.Metrics, Progress: pool.Progress,
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
}
