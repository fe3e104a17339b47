package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/runcache"
)

// ScalePoint is one configuration of a preliminary scaling study
// (paper §IV-B: "We run each benchmark without instrumentation with
// varied configurations and collect the benchmark's performance results
// ... preliminary scaling studies, which already indicate possible causes
// for performance loss").
type ScalePoint struct {
	Ranks, Threads int
	Nodes          int
	Wall           float64 // mean uninstrumented run time, seconds
	FoM            float64 // mean figure of merit (0 if not reported)
	Speedup        float64 // vs the first point
	Efficiency     float64 // speedup / resource ratio
	// DroppedReps counts this point's repetitions that failed twice and
	// were dropped.  A point with partial drops still reports a timing
	// (averaged over the completed repetitions), but the mean rests on
	// fewer samples — the table surfaces the count so a silently
	// weakened point cannot pass for a clean one.
	DroppedReps int
	// Err is non-empty when every repetition of the point failed; the
	// point's timing fields are then zero, and if it is the first point
	// no point has a speedup.
	Err string
}

// ScalingOptions configures a scaling study's execution.
type ScalingOptions struct {
	// Reps is the number of repetitions per point (default 3).
	Reps int
	// Seed decorrelates repetitions (rep r runs with Seed+r).
	Seed int64
	// Workers caps the job pool's goroutines; 0 uses GOMAXPROCS.
	Workers int
	// Cache optionally serves repetitions from a run cache.
	Cache *runcache.Cache
	// Metrics, when non-nil, aggregates observe-only counters across the
	// grid (see StudyOptions.Metrics).
	Metrics *obs.Registry
	// Progress, when non-nil, receives live job-grid completion events.
	Progress *obs.Progress
}

// ScalingResult is a completed scaling study: the per-point table plus
// the repetitions the pool had to drop (each point averages over its
// completed repetitions).
type ScalingResult struct {
	Points  []ScalePoint
	Dropped []DroppedRep
}

// RunScaling runs the given app (taken from base) uninstrumented at a
// series of (ranks, threads) points, in the cluster noise environment,
// and reports run times, speedups and parallel efficiencies.  The full
// points × reps grid runs on the shared job pool, with the same
// degradation path as RunStudy: a failing repetition is retried once
// with a fresh seed, then dropped; a point whose every repetition drops
// is reported with an Err entry instead of failing the study.  Results
// are byte-identical for every worker count.  A negative repetition
// count is rejected before any job runs.
func RunScaling(base Spec, points [][2]int, o ScalingOptions) (*ScalingResult, error) {
	if err := checkReps(base, o.Reps); err != nil {
		return nil, err
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	np := noise.Cluster()
	specs := make([]Spec, len(points))
	jobs := make([]Job, 0, len(points)*o.Reps)
	for pi, pt := range points {
		spec := base
		spec.Name = fmt.Sprintf("%s %dx%d", base.Name, pt[0], pt[1])
		spec.Ranks, spec.Threads = pt[0], pt[1]
		spec.Nodes = (pt[0]*pt[1] + 127) / 128
		if spec.Nodes < 1 {
			spec.Nodes = 1
		}
		spec.OnePerDomain = false
		specs[pi] = spec
		for rep := 0; rep < o.Reps; rep++ {
			jobs = append(jobs, Job{
				Spec: spec, Rep: rep,
				Opts: RunOptions{Seed: o.Seed + int64(rep), Noise: np, Metrics: o.Metrics},
			})
		}
	}
	o.Progress.Start(len(jobs), base.Name+" scaling grid")
	results, drops, _ := runPool(jobs, o.Workers, o.Cache, newPoolHooks(o.Metrics, o.Progress))
	o.Progress.Finish()
	out := &ScalingResult{Dropped: flattenDrops(drops)}
	for pi, spec := range specs {
		p := ScalePoint{Ranks: spec.Ranks, Threads: spec.Threads, Nodes: spec.Nodes}
		var total, fom float64
		done := 0
		for rep := 0; rep < o.Reps; rep++ {
			slot := pi*o.Reps + rep
			if res := results[slot]; res != nil {
				total += res.Wall
				fom += res.FoM
				done++
			} else if drops[slot] != nil {
				p.DroppedReps++
				if p.Err == "" {
					p.Err = drops[slot].Err
				}
			}
		}
		if done > 0 {
			p.Err = "" // partial completion still yields a timing
			p.Wall = total / float64(done)
			p.FoM = fom / float64(done)
		}
		out.Points = append(out.Points, p)
	}
	normalizeScaling(out.Points)
	return out, nil
}

// normalizeScaling fills Speedup and Efficiency against the first
// point.  If that point failed or has no positive wall time, every
// point keeps zero speedup and efficiency.
func normalizeScaling(points []ScalePoint) {
	if len(points) == 0 || points[0].Err != "" || points[0].Wall <= 0 {
		return
	}
	baseCores := float64(points[0].Ranks * points[0].Threads)
	for i := range points {
		if points[i].Err != "" || points[i].Wall <= 0 {
			continue
		}
		points[i].Speedup = points[0].Wall / points[i].Wall
		cores := float64(points[i].Ranks * points[i].Threads)
		points[i].Efficiency = points[i].Speedup * baseCores / cores
	}
}

// RenderScaling writes a scaling table.  Points whose every repetition
// failed render as a FAILED row carrying the first error; points that
// completed on a reduced sample show the dropped-repetition count in the
// status column, so partial failures are visible in the default output
// instead of hiding behind a clean-looking mean.
func RenderScaling(w io.Writer, name string, points []ScalePoint) {
	fmt.Fprintf(w, "scaling study: %s (uninstrumented reference timings)\n", name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ranks\tthreads\tnodes\twall/s\tFoM\tspeedup\tefficiency\tstatus")
	for _, p := range points {
		if p.Err != "" {
			fmt.Fprintf(tw, "%d\t%d\t%d\t-\t-\t-\t-\tFAILED (%d dropped): %s\n",
				p.Ranks, p.Threads, p.Nodes, p.DroppedReps, p.Err)
			continue
		}
		status := "ok"
		if p.DroppedReps > 0 {
			status = fmt.Sprintf("%d dropped", p.DroppedReps)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.4f\t%.4g\t%.2f\t%.2f\t%s\n",
			p.Ranks, p.Threads, p.Nodes, p.Wall, p.FoM, p.Speedup, p.Efficiency, status)
	}
	tw.Flush()
}
