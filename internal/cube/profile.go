// Package cube is the profile data model of the analysis workflow — the
// role the CUBE library and browser play for Scalasca in the paper.  A
// profile maps the three dimensions (metric, call path, location) to
// severity values and offers the two query styles the paper uses:
// "own root percent" (a metric's share of total time, written %T) and
// "metric selection percent" (a call path's share of one metric, %M).
package cube

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// MetricID indexes the profile's metric tree.
type MetricID int32

// PathID indexes the profile's call-path tree.
type PathID int32

// NoParent marks tree roots.
const NoParent = -1

// Metric is a node of the metric tree (paper Fig. 1).
type Metric struct {
	Name   string
	Desc   string
	Parent MetricID // NoParent for the root ("time")
}

// CallPath is a node of the call tree.  Name is the region name of the
// frame; the full path string is the names joined by "/".
type CallPath struct {
	Name   string
	Parent PathID // NoParent for root frames
}

// Profile is one analysis result: severities over (metric, path, location).
// Stored values are exclusive along the call-path dimension; along the
// metric dimension each metric holds its own total (child metrics refine,
// they are not subtracted).
type Profile struct {
	Clock    string
	Metrics  []Metric
	Paths    []CallPath
	LocNames []string

	metricByName map[string]MetricID
	pathByKey    map[pathKey]PathID
	// sev holds the severities densely: sev[m][path] is the row of
	// (metric, path) over locations.  A nil row, or a metric or path past
	// the end of its slice, means nothing was added there.
	sev [][][]float64
}

type pathKey struct {
	parent PathID
	name   string
}

// New creates an empty profile for the given clock mode and locations.
func New(clock string, locNames []string) *Profile {
	return &Profile{
		Clock:        clock,
		LocNames:     append([]string(nil), locNames...),
		metricByName: make(map[string]MetricID),
		pathByKey:    make(map[pathKey]PathID),
	}
}

// NumLocs returns the number of locations.
func (p *Profile) NumLocs() int { return len(p.LocNames) }

// AddMetric interns a metric under the given parent (NoParent for the
// root).  Re-adding a metric returns the existing id.
func (p *Profile) AddMetric(name, desc string, parent MetricID) MetricID {
	if id, ok := p.metricByName[name]; ok {
		return id
	}
	id := MetricID(len(p.Metrics))
	p.Metrics = append(p.Metrics, Metric{Name: name, Desc: desc, Parent: parent})
	p.metricByName[name] = id
	return id
}

// MetricByName finds a metric id; ok is false if absent.
func (p *Profile) MetricByName(name string) (MetricID, bool) {
	id, ok := p.metricByName[name]
	return id, ok
}

// Path interns a call-path node.
func (p *Profile) Path(parent PathID, name string) PathID {
	k := pathKey{parent, name}
	if id, ok := p.pathByKey[k]; ok {
		return id
	}
	id := PathID(len(p.Paths))
	p.Paths = append(p.Paths, CallPath{Name: name, Parent: parent})
	p.pathByKey[k] = id
	return id
}

// PathString returns the full "a/b/c" name of a path.
func (p *Profile) PathString(id PathID) string {
	if id < 0 {
		return ""
	}
	var parts []string
	for id >= 0 {
		parts = append(parts, p.Paths[id].Name)
		id = p.Paths[id].Parent
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// Add accumulates severity v at (metric, path, location).
func (p *Profile) Add(m MetricID, path PathID, loc int, v float64) {
	if v == 0 {
		return
	}
	for int(m) >= len(p.sev) {
		p.sev = append(p.sev, nil)
	}
	rows := p.sev[m]
	if n := int(path) + 1; n > len(rows) {
		// Rows are never dropped, so the capacity past len holds nil rows.
		rows = slices.Grow(rows, n-len(rows))[:n]
		p.sev[m] = rows
	}
	vals := rows[path]
	if vals == nil {
		vals = make([]float64, len(p.LocNames))
		rows[path] = vals
	}
	vals[loc] += v
}

// rows returns metric m's severity rows indexed by path id; the slice
// may end before the last path, and a nil row holds nothing.
func (p *Profile) rows(m MetricID) [][]float64 {
	if int(m) < len(p.sev) {
		return p.sev[m]
	}
	return nil
}

// row returns the severity row of (metric, path), nil if nothing was
// added there.
func (p *Profile) row(m MetricID, path PathID) []float64 {
	if rows := p.rows(m); int(path) < len(rows) {
		return rows[path]
	}
	return nil
}

// Value returns the exclusive severity at (metric, path, location).
func (p *Profile) Value(m MetricID, path PathID, loc int) float64 {
	if vals := p.row(m, path); vals != nil {
		return vals[loc]
	}
	return 0
}

// Total returns the metric's sum over all paths and locations, in
// path-id order: float addition is not associative, so only a fixed
// order gives the same low bits from call to call.
func (p *Profile) Total(m MetricID) float64 {
	var t float64
	for _, vals := range p.rows(m) {
		for _, v := range vals {
			t += v
		}
	}
	return t
}

// TotalByName is Total for a named metric (0 if absent).
func (p *Profile) TotalByName(name string) float64 {
	id, ok := p.metricByName[name]
	if !ok {
		return 0
	}
	return p.Total(id)
}

// ByPath returns path → severity summed over locations, exclusive in the
// call-path dimension.
func (p *Profile) ByPath(m MetricID) map[PathID]float64 {
	out := make(map[PathID]float64)
	for path, vals := range p.rows(m) {
		var s float64
		for _, v := range vals {
			s += v
		}
		if s != 0 {
			out[PathID(path)] = s
		}
	}
	return out
}

// Inclusive returns the metric severity of path including its call-tree
// descendants, summed over locations.
func (p *Profile) Inclusive(m MetricID, path PathID) float64 {
	// Build child lists once per call; profiles are small.
	total := p.exclusiveAll(m, path)
	for id := range p.Paths {
		if p.Paths[id].Parent == path {
			total += p.Inclusive(m, PathID(id))
		}
	}
	return total
}

func (p *Profile) exclusiveAll(m MetricID, path PathID) float64 {
	var s float64
	for _, v := range p.row(m, path) {
		s += v
	}
	return s
}

// ExclusiveMetric returns the metric's total minus its child metrics'
// totals — the Cube browser's "exclusive metric" view (for example, p2p
// time not explained by late-sender or late-receiver waiting is time in
// the MPI library itself).
func (p *Profile) ExclusiveMetric(name string) float64 {
	id, ok := p.metricByName[name]
	if !ok {
		return 0
	}
	total := p.Total(id)
	for i, m := range p.Metrics {
		if m.Parent == id {
			total -= p.Total(MetricID(i))
		}
	}
	return total
}

// PercentOfTime returns the metric's share of total time in percent — the
// paper's %T ("own root percent").
func (p *Profile) PercentOfTime(name string) float64 {
	t := p.TotalByName("time")
	if t == 0 {
		return 0
	}
	return 100 * p.TotalByName(name) / t
}

// PathPercents returns, for a named metric, the share of each call path in
// percent of the metric total — the paper's %M ("metric selection
// percent").  Keys are full path strings.
func (p *Profile) PathPercents(name string) map[string]float64 {
	id, ok := p.metricByName[name]
	if !ok {
		return nil
	}
	total := p.Total(id)
	out := make(map[string]float64)
	if total == 0 {
		return out
	}
	for path, v := range p.ByPath(id) {
		out[p.PathString(path)] += 100 * v / total
	}
	return out
}

// MCMap flattens the profile into the mapping the paper scores with the
// generalized Jaccard index: (metric, call path) → contribution in %T.
// Each call path's string is built once per call, on its first use.
func (p *Profile) MCMap() map[string]float64 {
	t := p.TotalByName("time")
	out := make(map[string]float64)
	if t == 0 {
		return out
	}
	names := make([]string, len(p.Paths))
	for m, rows := range p.sev {
		mname := p.Metrics[m].Name
		for path, vals := range rows {
			var s float64
			for _, v := range vals {
				s += v
			}
			if s != 0 {
				if names[path] == "" {
					names[path] = p.PathString(PathID(path))
				}
				out[mname+"|"+names[path]] += 100 * s / t
			}
		}
	}
	return out
}

// CallMap returns the mapping call path → %M for one metric, used for the
// paper's J_C^metric scores.
func (p *Profile) CallMap(metric string) map[string]float64 {
	return p.PathPercents(metric)
}

// Mean averages several profiles with identical structure intent (same
// metrics; call paths and locations may differ across noisy runs and are
// matched by name).  The result uses the union of paths.
func Mean(profiles []*Profile) *Profile {
	if len(profiles) == 0 {
		return nil
	}
	base := profiles[0]
	out := New(base.Clock, base.LocNames)
	n := float64(len(profiles))
	// Metrics in the order of the first profile, preserving parents.
	for _, m := range base.Metrics {
		parent := MetricID(NoParent)
		if m.Parent >= 0 {
			parent, _ = out.MetricByName(base.Metrics[m.Parent].Name)
		}
		out.AddMetric(m.Name, m.Desc, parent)
	}
	// Iterate metrics and paths in id (declaration) order, so the
	// output's Paths are interned in the order these loops first meet
	// them and the merged profile's serialised bytes never vary.  Each
	// input path is mapped to its output path once per input profile.
	var outOf []PathID
	for _, pr := range profiles {
		outOf = outOf[:0]
		for range pr.Paths {
			outOf = append(outOf, unmapped)
		}
		for m := range pr.Metrics {
			rows := pr.rows(MetricID(m))
			if rows == nil {
				continue
			}
			name := pr.Metrics[m].Name
			outM, ok := out.MetricByName(name)
			if !ok {
				outM = out.AddMetric(name, pr.Metrics[m].Desc, NoParent)
			}
			for path, vals := range rows {
				if vals == nil {
					continue
				}
				outPath := out.meanPath(pr, PathID(path), outOf)
				for l, v := range vals {
					if v != 0 && l < out.NumLocs() {
						out.Add(outM, outPath, l, v/n)
					}
				}
			}
		}
	}
	return out
}

// unmapped marks an input path Mean has not met yet.
const unmapped PathID = -2

// meanPath returns the output path of pr's path id, interning it as
// internPathString(pr.PathString(id)) would: its unmapped ancestors
// first, each name split at "/".  outOf memoises pr's paths.
func (p *Profile) meanPath(pr *Profile, id PathID, outOf []PathID) PathID {
	if outOf[id] == unmapped {
		parent := PathID(NoParent)
		if c := pr.Paths[id]; c.Parent != NoParent {
			parent = p.meanPath(pr, c.Parent, outOf)
		}
		outOf[id] = p.internNames(parent, pr.Paths[id].Name)
	}
	return outOf[id]
}

// internPathString re-creates a path node chain from an "a/b/c" string.
func (p *Profile) internPathString(s string) PathID {
	return p.internNames(NoParent, s)
}

// internNames interns the "/"-separated names of s as a chain under
// parent and returns its last node.
func (p *Profile) internNames(parent PathID, s string) PathID {
	for {
		name, rest, more := strings.Cut(s, "/")
		parent = p.Path(parent, name)
		if !more {
			return parent
		}
		s = rest
	}
}

// TopPaths returns the metric's call paths sorted by descending share,
// formatted as (path, %M) pairs, up to limit entries.
func (p *Profile) TopPaths(metric string, limit int) []PathShare {
	pcts := p.PathPercents(metric)
	out := make([]PathShare, 0, len(pcts))
	for path, v := range pcts {
		out = append(out, PathShare{Path: path, Percent: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Percent != out[j].Percent {
			return out[i].Percent > out[j].Percent
		}
		return out[i].Path < out[j].Path
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// PathShare is one entry of TopPaths.
type PathShare struct {
	Path    string
	Percent float64
}

// String formats the share for reports.
func (s PathShare) String() string {
	return fmt.Sprintf("%6.2f%%  %s", s.Percent, s.Path)
}
