package cube

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// RenderMetricTree writes the metric tree with each metric's total and
// share of time — the view the Cube browser calls "own root percent"
// (%T), which the paper uses for its first type of question.
func (p *Profile) RenderMetricTree(w io.Writer) {
	total := p.TotalByName("time")
	children := make(map[MetricID][]MetricID)
	var roots []MetricID
	for i := range p.Metrics {
		id := MetricID(i)
		if p.Metrics[i].Parent == NoParent {
			roots = append(roots, id)
		} else {
			children[p.Metrics[i].Parent] = append(children[p.Metrics[i].Parent], id)
		}
	}
	var walk func(id MetricID, depth int)
	walk = func(id MetricID, depth int) {
		v := p.Total(id)
		pct := 0.0
		if total > 0 {
			pct = 100 * v / total
		}
		fmt.Fprintf(w, "%s%-24s %14.4g  %6.2f%%T\n",
			strings.Repeat("  ", depth), p.Metrics[id].Name, v, pct)
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// RenderCallTree writes, for one metric, the call paths sorted by share —
// the "metric selection percent" view (%M).
func (p *Profile) RenderCallTree(w io.Writer, metric string, limit int) {
	fmt.Fprintf(w, "call paths by share of %s:\n", metric)
	for _, s := range p.TopPaths(metric, limit) {
		fmt.Fprintf(w, "  %s\n", s)
	}
}

// RenderLocations writes the per-location totals of a metric, exposing
// imbalance across ranks and threads.
func (p *Profile) RenderLocations(w io.Writer, metric string) {
	id, ok := p.MetricByName(metric)
	if !ok {
		fmt.Fprintf(w, "no metric %q\n", metric)
		return
	}
	totals := make([]float64, p.NumLocs())
	for _, vals := range p.rows(id) { // path-id order, as in Total
		for l, v := range vals {
			totals[l] += v
		}
	}
	fmt.Fprintf(w, "%s by location:\n", metric)
	for l, v := range totals {
		fmt.Fprintf(w, "  %-12s %14.4g\n", p.LocNames[l], v)
	}
}

// Summary returns a compact multi-line description used by the CLI tools.
func (p *Profile) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile (clock %s): %d metrics, %d call paths, %d locations\n",
		p.Clock, len(p.Metrics), len(p.Paths), p.NumLocs())
	names := make([]string, 0, len(p.metricByName))
	for n := range p.metricByName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v := p.TotalByName(n); v != 0 {
			fmt.Fprintf(&b, "  %-24s %6.2f%%T\n", n, p.PercentOfTime(n))
		}
	}
	return b.String()
}
