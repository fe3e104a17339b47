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
	"time"

	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/profiling"
	"repro/internal/runcache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltreport: ")
	quick := flag.Bool("quick", false, "shrink grids and iteration counts")
	reps := flag.Int("reps", 5, "repetitions for timing and noisy modes")
	seed := flag.Int64("seed", 1, "base noise seed")
	table := flag.Int("table", 0, "regenerate only this table (1 or 2)")
	fig := flag.Int("fig", 0, "regenerate only this figure (2-9)")
	workers := flag.Int("j", 0, "parallel simulations (0 = all CPUs); results are identical for any value")
	cacheDir := flag.String("cache", "", "serve repetitions from a run cache in this directory")
	faultCfg := flag.String("fault-study", "", "run the fault-resilience study on this configuration and exit")
	faultSpec := flag.String("faults", "", "fault plan for -fault-study (default: auto-sized one-off delay)")
	progress := flag.Bool("progress", false, "report live study progress with ETA on stderr")
	metrics := flag.Bool("metrics", false, "dump simulator metrics to stderr after the run")
	liveAddr := flag.String("live", "",
		"serve the study observatory (/healthz, /metrics, /progress) on this address")
	prof := profiling.AddFlags()
	flag.Parse()
	prof.Start()
	defer prof.Stop()

	opts := experiment.StudyOptions{Reps: *reps, BaseSeed: *seed, Workers: *workers}
	if *progress {
		// Wall-clock time feeds only the stderr progress display, never
		// the simulation itself.
		opts.Progress = obs.NewProgress(os.Stderr, "ltreport", time.Now) //detlint:allow wallclock
	}
	if *metrics {
		reg := obs.NewRegistry()
		opts.Metrics = reg
		defer func() {
			if err := reg.Snapshot().WriteText(os.Stderr); err != nil {
				log.Print(err)
			}
		}()
	}
	if *liveAddr != "" {
		// The observatory serves whatever is being collected; make sure
		// something is.
		if opts.Metrics == nil {
			opts.Metrics = obs.NewRegistry()
		}
		if opts.Progress == nil {
			opts.Progress = obs.NewProgress(os.Stderr, "ltreport", time.Now) //detlint:allow wallclock
		}
		srv, err := live.Start(*liveAddr, live.Options{
			Registry: opts.Metrics,
			Progress: opts.Progress,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("live observatory on http://%s", srv.Addr())
	}
	if *cacheDir != "" {
		cache, err := runcache.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		opts.Cache = cache
		defer func() {
			hits, misses := cache.Stats()
			log.Printf("run cache %s: %d hits, %d misses", cache.Dir(), hits, misses)
		}()
	}
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

	study := func(name string) *experiment.Study {
		spec, err := experiment.SpecByName(name, specOpts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "running %s...\n", name)
		st, err := experiment.RunStudy(spec, opts)
		if err != nil {
			log.Fatal(err)
		}
		return st
	}

	switch {
	case *table == 1:
		experiment.TableI(w, study("MiniFE-2"), study("LULESH-1"), study("TeaLeaf-2"))
	case *table == 2:
		experiment.TableII(w, []*experiment.Study{
			study("TeaLeaf-1"), study("TeaLeaf-2"), study("TeaLeaf-3"), study("TeaLeaf-4"),
		})
	case *fig == 2:
		experiment.Fig2(w, study("MiniFE-2"))
	case *fig == 3:
		experiment.FigJaccard(w, "FIG 3 (MiniFE, LULESH)", []*experiment.Study{
			study("MiniFE-1"), study("MiniFE-2"), study("LULESH-1"), study("LULESH-2"),
		})
	case *fig == 4:
		experiment.FigJaccard(w, "FIG 4 (TeaLeaf)", []*experiment.Study{
			study("TeaLeaf-1"), study("TeaLeaf-2"), study("TeaLeaf-3"), study("TeaLeaf-4"),
		})
	case *fig == 5:
		experiment.Fig5(w, study("MiniFE-1"), study("MiniFE-2"))
	case *fig == 6:
		experiment.Fig6(w, study("MiniFE-1"), study("MiniFE-2"))
	case *fig == 7:
		experiment.Fig7(w, study("MiniFE-2"))
	case *fig == 8:
		experiment.Fig8(w, study("LULESH-1"))
	case *fig == 9:
		experiment.Fig9(w, study("LULESH-1"))
	default:
		log.Fatalf("nothing to do: table=%d fig=%d", *table, *fig)
	}
}
