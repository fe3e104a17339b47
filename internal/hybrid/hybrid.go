// Package hybrid combines a physical-clock analysis with a logical-clock
// analysis of the same program — the paper's concluding proposal (§VI:
// "using the combined results from a physical and a logical measurement,
// it is possible to differentiate intrinsic wait states caused by uneven
// work distribution from extrinsic wait states due to uneven resource
// distribution").
//
// For every wait-state metric and call path, the classifier compares the
// severity fraction reported by the two measurements.  Waiting that the
// logical measurement reproduces is intrinsic: it follows from the
// program's own structure (load imbalance, serial sections) and will
// occur on any machine.  Waiting only the physical measurement sees is
// extrinsic: it is injected by the environment (memory contention, OS
// noise, network jitter) or by the measurement overhead itself.
package hybrid

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cube"
	"repro/internal/scalasca"
)

// Verdict classifies one wait-state finding.
type Verdict string

// Verdicts.
const (
	Intrinsic Verdict = "intrinsic" // reproduced by the logical measurement
	Extrinsic Verdict = "extrinsic" // visible only physically
	Mixed     Verdict = "mixed"     // both components substantial
)

const defaultMinPct = 0.05 // ignore findings below this %T

// waitMetrics lists the wait-state metrics the classifier examines.
var waitMetrics = []string{
	scalasca.MLateSender,
	scalasca.MLateReceiver,
	scalasca.MWaitNxN,
	scalasca.MBarrierWait,
	scalasca.MIdleThreads,
}

// Finding is one classified (metric, call path) wait state.
type Finding struct {
	Metric    string
	Path      string
	PhysPct   float64 // severity in the physical profile, %T
	LogPct    float64 // severity in the logical profile, %T
	Intrinsic float64 // min(PhysPct, LogPct)
	Extrinsic float64 // max(0, PhysPct-LogPct)
	Verdict   Verdict
}

// Report is the outcome of a hybrid comparison.
type Report struct {
	PhysClock, LogClock string
	Findings            []Finding
}

// Compare classifies the wait states of a physical profile against a
// logical profile of the same program.  minPct (in %T) filters noise; a
// non-positive value uses the default of 0.05 %T.
func Compare(phys, logical *cube.Profile, minPct float64) *Report {
	if minPct <= 0 {
		minPct = defaultMinPct
	}
	rep := &Report{PhysClock: phys.Clock, LogClock: logical.Clock}
	physTime := phys.TotalByName(scalasca.MTime)
	logTime := logical.TotalByName(scalasca.MTime)
	if physTime == 0 || logTime == 0 {
		return rep
	}
	for _, m := range waitMetrics {
		physID, okP := phys.MetricByName(m)
		if !okP {
			continue
		}
		physBy := groupByPath(phys, physID, physTime)
		var logBy map[string]float64
		if logID, okL := logical.MetricByName(m); okL {
			logBy = groupByPath(logical, logID, logTime)
		}
		keys := make([]string, 0, len(physBy))
		for k := range physBy {
			keys = append(keys, k)
		}
		for k := range logBy {
			if _, ok := physBy[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, path := range keys {
			p, l := physBy[path], logBy[path]
			if p < minPct && l < minPct {
				continue
			}
			f := Finding{
				Metric:  m,
				Path:    path,
				PhysPct: p,
				LogPct:  l,
			}
			f.Intrinsic = min(p, l)
			f.Extrinsic = p - l
			if f.Extrinsic < 0 {
				f.Extrinsic = 0
			}
			switch {
			case p <= 0 && l > 0:
				// Only the logical measurement claims waiting here: a
				// skew of the effort model, not a real wait state.
				f.Verdict = Intrinsic
			case l/max(p, 1e-12) >= 0.6:
				f.Verdict = Intrinsic
			case l/max(p, 1e-12) <= 0.25:
				f.Verdict = Extrinsic
			default:
				f.Verdict = Mixed
			}
			rep.Findings = append(rep.Findings, f)
		}
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].PhysPct != rep.Findings[j].PhysPct {
			return rep.Findings[i].PhysPct > rep.Findings[j].PhysPct
		}
		return rep.Findings[i].Path < rep.Findings[j].Path
	})
	return rep
}

func groupByPath(p *cube.Profile, id cube.MetricID, total float64) map[string]float64 {
	out := make(map[string]float64)
	for path, v := range p.ByPath(id) {
		out[p.PathString(path)] += 100 * v / total
	}
	return out
}

// Totals sums the intrinsic and extrinsic components over all findings.
func (r *Report) Totals() (intrinsic, extrinsic float64) {
	for _, f := range r.Findings {
		intrinsic += f.Intrinsic
		extrinsic += f.Extrinsic
	}
	return
}

// Render writes the report as a table.
func (r *Report) Render(w io.Writer, limit int) {
	fmt.Fprintf(w, "hybrid wait-state classification (%s vs %s):\n", r.PhysClock, r.LogClock)
	fmt.Fprintf(w, "%-10s %7s %7s  %-16s %s\n", "verdict", "phys%T", "log%T", "metric", "call path")
	n := 0
	for _, f := range r.Findings {
		if limit > 0 && n >= limit {
			break
		}
		fmt.Fprintf(w, "%-10s %7.2f %7.2f  %-16s %s\n", f.Verdict, f.PhysPct, f.LogPct, f.Metric, f.Path)
		n++
	}
	in, ex := r.Totals()
	fmt.Fprintf(w, "totals: intrinsic %.2f%%T (fix the algorithm), extrinsic %.2f%%T (fix placement/system)\n", in, ex)
}
