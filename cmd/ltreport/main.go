// Command ltreport regenerates the paper's tables and figures.
//
// Usage:
//
//	ltreport                 # everything (Table I, II, Figs 2-9)
//	ltreport -quick          # smaller grids / fewer iterations
//	ltreport -reps 3         # fewer repetitions
//	ltreport -table 1        # only Table I
//	ltreport -fig 9          # only Figure 9
//	ltreport -j 4            # at most 4 parallel simulations
//	ltreport -cache ~/.ltcache             # reuse cached repetitions
//	ltreport -fault-study MiniFE-1         # fault-resilience table
//	ltreport -table 1 -cpuprofile cpu.pprof  # profile the hot path
//	ltreport -progress -metrics      # live ETA and a metrics dump, on stderr
//
// Neither -progress nor -metrics perturbs the tables: both write to
// stderr only, and the simulation never reads what they record.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/cmd/internal/studycli"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/profiling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltreport: ")
	quick := flag.Bool("quick", false, "shrink grids and iteration counts")
	reps := flag.Int("reps", 5, "repetitions for timing and noisy modes")
	seed := flag.Int64("seed", 1, "base noise seed")
	table := flag.Int("table", 0, "regenerate only this table (1 or 2)")
	fig := flag.Int("fig", 0, "regenerate only this figure (2-9)")
	faultCfg := flag.String("fault-study", "", "run the fault-resilience study on this configuration and exit")
	faultSpec := flag.String("faults", "", "fault plan for -fault-study (default: auto-sized one-off delay)")
	pool := studycli.Flags(flag.CommandLine, studycli.MetricsFlag|studycli.LiveFlag)
	prof := profiling.AddFlags()
	flag.Parse()
	prof.Start()
	defer prof.Stop()
	if err := pool.Open("ltreport"); err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	opts := experiment.StudyOptions{Reps: *reps, BaseSeed: *seed,
		Workers: pool.Workers, Cache: pool.Cache, Metrics: pool.Metrics, Progress: pool.Progress}
	specOpts := experiment.Options{Quick: *quick}
	w := os.Stdout

	if *faultCfg != "" {
		spec, err := experiment.SpecByName(*faultCfg, specOpts)
		if err != nil {
			log.Fatal(err)
		}
		var plan faults.Plan
		if *faultSpec != "" {
			plan, err = faults.ParseSpec(*faultSpec)
		} else {
			plan, err = experiment.DefaultPlanFor(spec, opts)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "running fault study on %s...\n", spec.Name)
		fs, err := experiment.RunFaultStudy(spec, opts, plan)
		if err != nil {
			log.Fatal(err)
		}
		experiment.FaultReport(w, fs)
		return
	}

	if *table == 0 && *fig == 0 {
		if err := experiment.FullReport(w, opts, specOpts); err != nil {
			log.Fatal(err)
		}
		return
	}
	sec, ok := section(*table, *fig)
	if !ok {
		log.Fatalf("nothing to do: table=%d fig=%d", *table, *fig)
	}
	sts, err := studycli.Studies(w, sec.Specs, specOpts, opts)
	if err != nil {
		log.Fatal(err)
	}
	sec.Render(w, sts)
}

// section returns the report section -table and -fig select: the first,
// in the report's order, named "table<table>" or "fig<fig>".
func section(table, fig int) (experiment.Section, bool) {
	for _, sec := range experiment.Sections() {
		if sec.Name == fmt.Sprintf("table%d", table) || sec.Name == fmt.Sprintf("fig%d", fig) {
			return sec, true
		}
	}
	return experiment.Section{}, false
}
