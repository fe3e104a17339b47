// Command lthybrid runs one benchmark configuration twice — once with the
// physical clock and once with a logical clock — and classifies every
// wait state as intrinsic (algorithmic: fix the code) or extrinsic
// (environmental: fix the placement or the system).  This implements the
// combined physical+logical analysis the paper proposes as future work
// (§VI-B).
//
// Usage:
//
//	lthybrid -config LULESH-2                 # NUMA waits: extrinsic
//	lthybrid -config MiniFE-1 -logical lt_bb  # imbalance waits: intrinsic
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/hybrid"
	"repro/internal/noise"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lthybrid: ")
	config := flag.String("config", "MiniFE-1", "configuration name (see ltrun -list)")
	logical := flag.String("logical", "lt_stmt", "logical timer mode to pair with tsc")
	seed := flag.Int64("seed", 1, "noise seed")
	quick := flag.Bool("quick", false, "shrink the problem")
	minPct := flag.Float64("min", 0.1, "ignore findings below this %T")
	limit := flag.Int("limit", 20, "findings to print")
	flag.Parse()

	mode := core.Mode(*logical)
	if err := core.CheckMode(mode); err != nil {
		log.Fatal(err)
	}
	if mode == core.ModeTSC {
		log.Fatal("-logical must be a logical mode")
	}
	spec, err := experiment.SpecByName(*config, experiment.Options{Quick: *quick})
	if err != nil {
		log.Fatal(err)
	}
	np := noise.Cluster()
	phys, err := experiment.Run(spec, core.ModeTSC, *seed, np, true)
	if err != nil {
		log.Fatal(err)
	}
	logi, err := experiment.Run(spec, mode, *seed, np, true)
	if err != nil {
		log.Fatal(err)
	}
	rep := hybrid.Compare(phys.Profile, logi.Profile, *minPct)
	rep.Render(os.Stdout, *limit)
}
