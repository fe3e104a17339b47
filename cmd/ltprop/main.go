// Command ltprop runs a delay-propagation study: for each timer mode it
// simulates one baseline and one faulted run of the same configuration
// and seed, aligns the two traces, and reports how the injected delay
// travelled — per-rank delay fronts, front speed in ranks per iteration,
// decay or absorption against communication slack, and the desync of the
// ranks' iteration phases — plus whether each logical clock's view of
// the front matches the tsc reference.
//
// Usage:
//
//	ltprop -spec Ring-16                               # default Afzal plan, all modes
//	ltprop -spec RingSlack-16 -mode tsc,lt_hwctr       # subset of modes
//	ltprop -spec Torus-16 -faults "oneoff:rank=5,at=0.005,delay=0.002"
//	ltprop -spec Ring-16 -quick -j 4 -cache ~/.ltcache # parallel, cached
//	ltprop -spec Ring-16 -json study.json              # deterministic JSON
//	ltprop -list                                       # show configurations
//
// Without -faults the plan is sized from an uninstrumented reference
// run: one one-off delay on the middle rank at 30% of the wall time,
// lasting 5% of it.  Output is byte-identical for any -j and for
// cache-served reruns.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/cmd/internal/studycli"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faults"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltprop: ")
	spec := flag.String("spec", "Ring-16", "configuration name (see -list)")
	mode := flag.String("mode", "all", `timer modes: "all" or a comma list (tsc,lt_1,lt_loop,lt_bb,lt_stmt,lt_hwctr)`)
	seed := flag.Int64("seed", 1, "study seed")
	quick := flag.Bool("quick", false, "shrink the problem")
	jsonOut := flag.String("json", "", "write the study as deterministic JSON here (- = stdout)")
	faultSpec := flag.String("faults", "",
		`fault plan (default: sized from a reference run), e.g. "oneoff:rank=8,at=0.01,delay=0.002"`)
	quiet := flag.Bool("quiet", false, "suppress the text report")
	pool := studycli.Flags(flag.CommandLine, studycli.LiveFlag)
	list := flag.Bool("list", false, "list configurations and exit")
	flag.Parse()

	specOpts := experiment.Options{Quick: *quick}
	if *list {
		fmt.Println("pattern configurations (built for propagation studies):")
		printSpecs(experiment.PatternSpecs(specOpts))
		fmt.Println("\npaper configurations (also accepted):")
		printSpecs(experiment.Specs(specOpts))
		return
	}
	sp, err := experiment.SpecByName(*spec, specOpts)
	if err != nil {
		log.Fatal(err)
	}
	if err := pool.Open("ltprop"); err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	opts := experiment.PropagationOptions{Seed: *seed,
		Workers: pool.Workers, Cache: pool.Cache, Metrics: pool.Metrics, Progress: pool.Progress}
	if *mode != "all" {
		for _, m := range strings.Split(*mode, ",") {
			opts.Modes = append(opts.Modes, core.Mode(strings.TrimSpace(m)))
		}
	}

	var plan faults.Plan
	if *faultSpec != "" {
		if plan, err = faults.ParseSpec(*faultSpec); err != nil {
			log.Fatal(err)
		}
	} else if plan, err = experiment.DefaultPropagationPlanFor(sp, opts); err != nil {
		log.Fatal(err)
	}

	st, err := experiment.RunPropagationStudy(sp, opts, plan)
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		experiment.PropagationReport(os.Stdout, st)
	}
	if *jsonOut != "" {
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := st.WriteJSON(w); err != nil {
			log.Fatal(err)
		}
		if *jsonOut != "-" && !*quiet {
			fmt.Printf("\nstudy written to %s\n", *jsonOut)
		}
	}
}

func printSpecs(specs []experiment.Spec) {
	for _, s := range specs {
		fmt.Printf("  %-15s %3d ranks x %3d threads on %d node(s): %s\n",
			s.Name, s.Ranks, s.Threads, s.Nodes, s.Description)
	}
}
