// Command ltverify checks the reproduction against the paper's
// qualitative claims, one by one, and prints PASS/FAIL per claim.  It is
// the executable form of EXPERIMENTS.md: it runs the studies the claims
// read (experiment.ClaimSpecs) at quick scale as one grid, verifying
// every trace, then checks experiment.Claims, each of which names the
// paper section it comes from and tests the *shape* (sign, ordering,
// dominance) rather than absolute numbers.
//
// Usage:
//
//	ltverify            # all claims (~5 s on 2 CPUs)
//	ltverify -reps 5
//	ltverify -j 4 -cache ~/.ltcache   # parallel, cached repetitions
//	ltverify -progress -metrics       # live ETA and a metrics dump, on stderr
//
// Exit status 1 if any claim fails.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/cmd/internal/studycli"
	"repro/internal/experiment"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltverify: ")
	reps := flag.Int("reps", 3, "repetitions per study")
	pool := studycli.Flags(flag.CommandLine, studycli.MetricsFlag)
	flag.Parse()
	if err := pool.Open("ltverify"); err != nil {
		log.Fatal(err)
	}

	opts := experiment.StudyOptions{Reps: *reps, VerifyTraces: true,
		Workers: pool.Workers, Cache: pool.Cache, Metrics: pool.Metrics, Progress: pool.Progress}
	// One grid for all six studies; each trace is verified on the pool
	// worker that produced or served it, then dropped.
	sts, err := studycli.Studies(os.Stdout, experiment.ClaimSpecs, experiment.Options{Quick: true}, opts)
	if err != nil {
		log.Fatal(err)
	}
	// Close before the claim checks so the cache line and the metrics
	// dump appear even when a failing claim ends the process with a
	// non-zero status.
	pool.Close()
	fmt.Println()
	if experiment.CheckClaims(os.Stdout, sts) > 0 {
		os.Exit(1)
	}
}
