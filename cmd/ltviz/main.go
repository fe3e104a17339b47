// Command ltviz renders simulator traces as Chrome trace-event /
// Perfetto JSON for ui.perfetto.dev or chrome://tracing.
//
// It has two sources.  Given trace files, it converts each one:
//
//	ltviz run.ltrc                     # JSON to stdout
//	ltviz -o run.json run.ltrc         # JSON to a file
//	ltviz -range 1000:2000 run.ltrc    # only events with vtime in [1000, 2000]
//
// -range answers virtual-time window queries: it decompresses only the
// chunks whose header span overlaps the window (trace.ChunkFile.Range).
// A file is read strictly: a trace cut off or damaged anywhere, inside
// the window or not, fails with an error naming the file.
//
// Given -spec, it runs the configuration in-process and exports the
// resulting trace together with the run's machine timeline — fault
// injections as instant events and the fluid model's resource
// capacities as counter tracks — which no on-disk trace carries:
//
//	ltviz -spec MiniFE-1 -mode lt_stmt -o minife.json
//	ltviz -spec MiniFE-1 -mode tsc -faults "membw:domain=0,at=0.001,dur=0.005,factor=0.2" -o fault.json
//
// With -front (requires -spec and -faults), ltviz additionally runs the
// same configuration *without* the faults, feeds the pair through the
// delay-propagation analyzer, and overlays the delay front on the
// machine track: one instant mark per rank at the moment the injected
// delay first exceeded the detection threshold there.  On logical-clock
// traces whose runs are byte-identical the overlay is empty — the
// front is invisible to that clock, which is the point:
//
//	ltviz -spec Ring-16 -mode tsc -faults "oneoff:rank=8,at=0.01,delay=0.002" -front -o front.json
//
// Timestamps are trace clock ticks scaled to the trace-event format's
// microseconds: real time for tsc traces, logical ticks (one per
// microsecond) for the logical modes — so the machine timeline, which
// is in virtual seconds, lines up with the slices only on tsc traces.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/obs/perfetto"
	"repro/internal/propagation"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ltviz: ")
	out := flag.String("o", "", "output file (default stdout; with several inputs, a per-input .json path)")
	spec := flag.String("spec", "", "run this configuration in-process instead of reading trace files (see ltrun -list)")
	mode := flag.String("mode", "lt_stmt", "timer mode for -spec runs")
	seed := flag.Int64("seed", 1, "noise seed for -spec runs")
	quick := flag.Bool("quick", false, "shrink the -spec problem")
	noNoise := flag.Bool("no-noise", false, "disable all noise sources in -spec runs")
	faultSpec := flag.String("faults", "", `fault plan for -spec runs, e.g. "oneoff:rank=2,at=0.01,delay=0.005"`)
	front := flag.Bool("front", false, "overlay the delay front from a matching baseline run (needs -spec and -faults)")
	rng := flag.String("range", "", `export only events with vtime in "min:max" (only the overlapping chunks decode)`)
	flag.Parse()

	minT, maxT, haveRange, err := parseRange(*rng)
	if err != nil {
		log.Fatal(err)
	}
	if haveRange && *spec != "" {
		log.Fatal("-range applies to trace files, not -spec runs")
	}

	if *front && (*spec == "" || *faultSpec == "") {
		log.Fatal("-front needs both -spec and -faults: the overlay diffs a faulted run against its baseline")
	}
	if *spec != "" {
		if flag.NArg() > 0 {
			log.Fatal("-spec and trace-file arguments are mutually exclusive")
		}
		tr, tl, err := runSpec(*spec, *mode, *seed, *quick, *noNoise, *faultSpec, *front)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeJSON(*out, tr, tl); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() == 0 {
		log.Fatal("no input: pass trace files or -spec (see -h)")
	}
	if flag.NArg() > 1 && *out != "" {
		log.Fatal("-o takes a single trace file; omit it to write per-input .json files")
	}
	for _, path := range flag.Args() {
		tr, err := readRange(path, minT, maxT)
		if err != nil {
			log.Fatal(err)
		}
		dst := *out
		if flag.NArg() > 1 {
			dst = path + ".json"
		}
		if err := writeJSON(dst, tr, nil); err != nil {
			log.Fatal(err)
		}
		if dst != "" {
			inRange := ""
			if haveRange {
				inRange = " in range"
			}
			fmt.Fprintf(os.Stderr, "ltviz: %s -> %s (%d events%s)\n", path, dst, tr.NumEvents(), inRange)
		}
	}
}

// parseRange parses the -range "min:max" virtual-time window; without
// one the window is every stamp.
func parseRange(s string) (minT, maxT uint64, ok bool, err error) {
	if s == "" {
		return 0, math.MaxUint64, false, nil
	}
	var lo, hi uint64
	if _, err := fmt.Sscanf(s, "%d:%d", &lo, &hi); err != nil {
		return 0, 0, false, fmt.Errorf(`-range wants "min:max" (vtime ticks): %v`, err)
	}
	if hi < lo {
		return 0, 0, false, fmt.Errorf("-range: max %d below min %d", hi, lo)
	}
	return lo, hi, true, nil
}

// readRange decodes the events of a trace file whose vtime lies in
// [minT, maxT]; the chunks outside the window are not inflated.
func readRange(path string, minT, maxT uint64) (*trace.Trace, error) {
	cf, err := trace.OpenChunkFile(path)
	if err != nil {
		return nil, err
	}
	return cf.Range(minT, maxT)
}

// runSpec executes one configuration in-process with a timeline
// attached and returns the trace plus the machine annotations.  With
// front set it also runs the fault-free baseline and overlays the
// delay-propagation analysis as timeline marks.
func runSpec(name, mode string, seed int64, quick, noNoise bool, faultSpec string, front bool) (*trace.Trace, *obs.Timeline, error) {
	sp, err := experiment.SpecByName(name, experiment.Options{Quick: quick})
	if err != nil {
		return nil, nil, err
	}
	if mode == "" {
		return nil, nil, fmt.Errorf("-spec needs an instrumented -mode (a reference run records no trace)")
	}
	cfg := measure.DefaultConfig(core.Mode(mode))
	np := noise.Cluster()
	if noNoise {
		np = noise.Params{}
	}
	var plan *faults.Plan
	if faultSpec != "" {
		p, err := faults.ParseSpec(faultSpec)
		if err != nil {
			return nil, nil, err
		}
		plan = &p
	}
	tl := &obs.Timeline{}
	res, err := experiment.RunWithOptions(sp, experiment.RunOptions{
		Cfg: &cfg, Seed: seed, Noise: np, Faults: plan, Timeline: tl,
	})
	if err != nil {
		return nil, nil, err
	}
	if front {
		if err := overlayFront(tl, sp, cfg, seed, np, res.Trace); err != nil {
			return nil, nil, err
		}
	}
	return res.Trace, tl, nil
}

// overlayFront re-runs the configuration without the fault plan, diffs
// the baseline against the faulted trace through the propagation
// analyzer, and marks each rank's delay-front crossing on the timeline.
// Marks are in virtual seconds, so they land on the timeline axis the
// machine track already uses; FrontTime is in baseline clock ticks and
// scales by the clock's tick length.  A clock that never saw the fault
// contributes a single "front invisible" mark instead.
func overlayFront(tl *obs.Timeline, sp experiment.Spec, cfg measure.Config, seed int64, np noise.Params, faulted *trace.Trace) error {
	base, err := experiment.RunWithOptions(sp, experiment.RunOptions{
		Cfg: &cfg, Seed: seed, Noise: np,
	})
	if err != nil {
		return fmt.Errorf("front baseline: %w", err)
	}
	a, err := propagation.Analyze(base.Trace, faulted, propagation.Options{})
	if err != nil {
		return fmt.Errorf("front analysis: %w", err)
	}
	scale := perfetto.TickSeconds(a.Clock)
	if !a.Observed {
		tl.AddMark(0, "front invisible",
			fmt.Sprintf("clock %s shows no delta above %.4g ticks", a.Clock, a.ThresholdTicks))
		return nil
	}
	for _, rd := range a.Ranks {
		if rd.FrontTime < 0 {
			continue
		}
		tl.AddMark(rd.FrontTime*scale,
			fmt.Sprintf("delay front rank %d", rd.Rank),
			fmt.Sprintf("iter %d, peak %.4g ticks, %s", rd.FrontIter, rd.Peak, rd.Class))
	}
	return nil
}

// writeJSON exports to the given path, or stdout when path is empty.
func writeJSON(path string, tr *trace.Trace, tl *obs.Timeline) error {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return perfetto.Export(w, tr, tl)
}
