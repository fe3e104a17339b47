// Command ltrun runs one benchmark configuration with one timer mode and
// writes the trace and/or the analysis profile to disk.
//
// Usage:
//
//	ltrun -config MiniFE-1 -mode lt_stmt -profile out.cube.json
//	ltrun -config TeaLeaf-2 -mode tsc -trace out.ltrc -seed 3
//	ltrun -config LULESH-1 -mode ""        # uninstrumented reference
//	ltrun -config MiniFE-1 -faults "oneoff:rank=2,at=0.01,delay=0.005"
//	ltrun -config MiniFE-1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	ltrun -list                            # show configurations
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/profiling"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltrun: ")
	config := flag.String("config", "MiniFE-1", "configuration name (see -list)")
	mode := flag.String("mode", "lt_stmt", `timer mode (tsc, lt_1, lt_loop, lt_bb, lt_stmt, lt_hwctr; "" = reference)`)
	seed := flag.Int64("seed", 1, "noise seed")
	quick := flag.Bool("quick", false, "shrink the problem")
	quiet := flag.Bool("quiet", false, "suppress the profile summary")
	noNoise := flag.Bool("no-noise", false, "disable all noise sources")
	faultSpec := flag.String("faults", "",
		`deterministic fault plan, e.g. "oneoff:rank=2,at=0.01,delay=0.005;straggler:rank=0,factor=1.5"`)
	traceOut := flag.String("trace", "", "write the binary trace here (chunked compressed format)")
	traceV1 := flag.Bool("trace-v1", false, "write the trace in the legacy monolithic version-1 format")
	profOut := flag.String("profile", "", "write the analysis profile (JSON) here")
	liveAddr := flag.String("live", "",
		"serve the run observatory on this address (host:port) while the run executes")
	liveLinger := flag.Duration("live-linger", 0,
		"keep the observatory serving this long after the run completes (for scrapers)")
	list := flag.Bool("list", false, "list configurations and exit")
	prof := profiling.AddFlags()
	flag.Parse()
	prof.Start()
	defer prof.Stop()

	specOpts := experiment.Options{Quick: *quick}
	if *list {
		for _, s := range experiment.Specs(specOpts) {
			fmt.Printf("%-10s %3d ranks x %3d threads on %d node(s): %s\n",
				s.Name, s.Ranks, s.Threads, s.Nodes, s.Description)
		}
		return
	}
	spec, err := experiment.SpecByName(*config, specOpts)
	if err != nil {
		log.Fatal(err)
	}
	np := noise.Cluster()
	if *noNoise {
		np = noise.Params{}
	}
	var plan *faults.Plan
	if *faultSpec != "" {
		p, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		plan = &p
	}
	var cfg *measure.Config
	if *mode != "" {
		c := measure.DefaultConfig(core.Mode(*mode))
		cfg = &c
	}
	opts := experiment.RunOptions{
		Cfg: cfg, Seed: *seed, Noise: np, Faults: plan,
		Analyze: *profOut != "" || !*quiet,
	}

	// Live observatory: spill the trace to a sidecar file as it is
	// recorded (AutoFlush so the tail sees every sealed chunk) and serve
	// the monitoring endpoints while the run executes.  The sidecar is a
	// separate file from -trace: the official artifact is still written
	// at the end, byte-identical to a run without -live.
	var spillClose func()
	if *liveAddr != "" {
		if cfg == nil {
			log.Fatal("-live requires an instrumented run (non-empty -mode)")
		}
		spillPath := *traceOut + ".live"
		if *traceOut == "" {
			f, err := os.CreateTemp("", "ltrun-live-*.ltrc")
			if err != nil {
				log.Fatal(err)
			}
			spillPath = f.Name()
			f.Close()
			defer os.Remove(spillPath)
		}
		sf, err := os.Create(spillPath)
		if err != nil {
			log.Fatal(err)
		}
		cw := trace.NewChunkWriter(sf, *mode)
		cw.AutoFlush = true
		spillClose = func() {
			if err := cw.Close(); err != nil {
				log.Printf("live spill: %v", err)
			}
			if err := sf.Close(); err != nil {
				log.Printf("live spill: %v", err)
			}
		}
		opts.TraceSink = cw
		opts.Metrics = obs.NewRegistry()
		opts.Timeline = &obs.Timeline{}
		srv, err := live.Start(*liveAddr, live.Options{
			Registry:  opts.Metrics,
			Timeline:  opts.Timeline,
			TracePath: spillPath,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("live observatory on http://%s (spill %s)\n", srv.Addr(), spillPath)
	}

	res, err := experiment.RunWithOptions(spec, opts)
	if err != nil {
		log.Fatal(err)
	}
	if spillClose != nil {
		// Seal the sidecar (index + trailer) so the tail's next poll sees
		// the run complete.
		spillClose()
	}
	if plan != nil {
		fmt.Printf("armed faults: %s\n", plan.Describe())
	}
	fmt.Printf("%s (%s): wall %.3f s", spec.Name, orRef(*mode), res.Wall)
	if res.Trace != nil {
		fmt.Printf(", %d events on %d locations", res.Trace.NumEvents(), len(res.Trace.Locs))
	}
	fmt.Println()
	if res.Trace != nil && *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		werr := error(nil)
		if *traceV1 {
			werr = res.Trace.Write(f)
		} else {
			werr = trace.WriteChunked(f, res.Trace)
		}
		if werr != nil {
			log.Fatal(werr)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	if res.Profile != nil {
		if *profOut != "" {
			f, err := os.Create(*profOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := res.Profile.Write(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("profile written to %s\n", *profOut)
		}
		if !*quiet {
			res.Profile.RenderMetricTree(os.Stdout)
		}
	}
	if *liveAddr != "" && *liveLinger > 0 {
		fmt.Printf("lingering %s for observatory clients\n", *liveLinger)
		time.Sleep(*liveLinger)
	}
}

func orRef(mode string) string {
	if mode == "" {
		return "reference"
	}
	return mode
}
