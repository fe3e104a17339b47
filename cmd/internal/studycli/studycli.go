// Package studycli is the front end the study commands (ltreport,
// ltverify, ltprop and ltscale) share: the pool flags, what they set up
// — the run cache, the metrics registry, the progress reporter and the
// live observatory — and the grid of named studies.
package studycli

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/runcache"
)

// Extra selects the pool flags a command takes beyond -j, -cache and
// -progress.
type Extra int

const (
	MetricsFlag Extra = 1 << iota // -metrics
	LiveFlag                      // -live
)

// Pool is what a study command's pool flags set up, for its options
// struct: Workers is -j, and each other field is nil when the flags
// that ask for it are off.
type Pool struct {
	Workers  int
	Cache    *runcache.Cache
	Metrics  *obs.Registry
	Progress *obs.Progress

	cacheDir, liveAddr string
	progress, dump     bool
	srv                *live.Server
}

// Flags declares -j, -cache and -progress on fs, which every study
// command takes, plus the extra flags asked for.
func Flags(fs *flag.FlagSet, extra Extra) *Pool {
	p := new(Pool)
	fs.IntVar(&p.Workers, "j", 0, "parallel simulations (0 = all CPUs); results are identical for any value")
	fs.StringVar(&p.cacheDir, "cache", "", "serve repeated runs from a run cache in this directory")
	fs.BoolVar(&p.progress, "progress", false, "report live study progress with ETA on stderr")
	if extra&MetricsFlag != 0 {
		fs.BoolVar(&p.dump, "metrics", false, "dump simulator metrics to stderr after the run")
	}
	if extra&LiveFlag != 0 {
		fs.StringVar(&p.liveAddr, "live", "",
			"serve the study observatory (/healthz, /metrics, /progress) on this address")
	}
	return p
}

// Open sets up what the parsed flags ask for: the run cache with
// -cache, the registry with -metrics or -live, the progress reporter
// (its lines labelled name) with -progress or -live, and the
// observatory with -live.
func (p *Pool) Open(name string) error {
	if p.cacheDir != "" {
		cache, err := runcache.Open(p.cacheDir)
		if err != nil {
			return err
		}
		p.Cache = cache
	}
	if p.dump || p.liveAddr != "" {
		p.Metrics = obs.NewRegistry()
	}
	if p.progress || p.liveAddr != "" {
		// Wall-clock time feeds only the stderr progress display, never
		// the simulation itself.
		p.Progress = obs.NewProgress(os.Stderr, name, time.Now) //detlint:allow wallclock
	}
	if p.liveAddr != "" {
		srv, err := live.Start(p.liveAddr, live.Options{Registry: p.Metrics, Progress: p.Progress})
		if err != nil {
			return err
		}
		p.srv = srv
		log.Printf("live observatory on http://%s", srv.Addr())
	}
	return nil
}

// Close logs the run cache's hits and misses, dumps the registry with
// -metrics, then stops the observatory.
func (p *Pool) Close() {
	if p.Cache != nil {
		hits, misses := p.Cache.Stats()
		log.Printf("run cache %s: %d hits, %d misses", p.Cache.Dir(), hits, misses)
	}
	if p.dump {
		if err := p.Metrics.Snapshot().WriteText(os.Stderr); err != nil {
			log.Print(err)
		}
	}
	if p.srv != nil {
		p.srv.Close()
	}
}

// Studies prints a "running NAME..." line per name to w, then runs the
// named studies as one experiment.RunStudies grid, in name order.
func Studies(w io.Writer, names []string, specOpts experiment.Options, opts experiment.StudyOptions) ([]*experiment.Study, error) {
	specs := make([]experiment.Spec, len(names))
	for i, name := range names {
		spec, err := experiment.SpecByName(name, specOpts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "running %s...\n", name)
		specs[i] = spec
	}
	return experiment.RunStudies(specs, opts)
}
