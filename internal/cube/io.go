package cube

import (
	"encoding/json"
	"fmt"
	"io"
)

// profileJSON is the serialised form: flat severity records so the file is
// both compact and greppable.
type profileJSON struct {
	Clock    string       `json:"clock"`
	Metrics  []metricJSON `json:"metrics"`
	Paths    []pathJSON   `json:"paths"`
	LocNames []string     `json:"locations"`
	Sev      []sevJSON    `json:"severities"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Desc   string `json:"desc,omitempty"`
	Parent int32  `json:"parent"`
}

type pathJSON struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
}

type sevJSON struct {
	Metric int32     `json:"m"`
	Path   int32     `json:"p"`
	Vals   []float64 `json:"v"`
}

// Write serialises the profile as JSON.
func (p *Profile) Write(w io.Writer) error {
	out := profileJSON{Clock: p.Clock, LocNames: p.LocNames}
	for _, m := range p.Metrics {
		out.Metrics = append(out.Metrics, metricJSON{Name: m.Name, Desc: m.Desc, Parent: int32(m.Parent)})
	}
	for _, c := range p.Paths {
		out.Paths = append(out.Paths, pathJSON{Name: c.Name, Parent: int32(c.Parent)})
	}
	// Deterministic order: metric id, then path id.
	for m := 0; m < len(p.Metrics); m++ {
		byPath := p.sev[MetricID(m)]
		for path := 0; path < len(p.Paths); path++ {
			if vals, ok := byPath[PathID(path)]; ok {
				out.Sev = append(out.Sev, sevJSON{Metric: int32(m), Path: int32(path), Vals: vals})
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Read deserialises a profile written by Write.  It rejects any profile
// Write could not have produced in ways the queries rely on: a metric or
// path parent that is neither NoParent nor an earlier entry (the trees
// would hold dangling or cyclic links), a duplicate metric name or
// (parent, name) path, and a severity record with an out-of-range id, a
// duplicate (metric, path) pair or more values than locations.
func Read(r io.Reader) (*Profile, error) {
	var in profileJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("cube: decoding profile: %w", err)
	}
	p := New(in.Clock, in.LocNames)
	for i, m := range in.Metrics {
		if m.Parent != NoParent && (m.Parent < 0 || int(m.Parent) >= i) {
			return nil, fmt.Errorf("cube: metric %d (%q) has parent %d, not an earlier metric", i, m.Name, m.Parent)
		}
		if _, dup := p.metricByName[m.Name]; dup {
			return nil, fmt.Errorf("cube: metric %q defined twice", m.Name)
		}
		p.AddMetric(m.Name, m.Desc, MetricID(m.Parent))
	}
	for i, c := range in.Paths {
		if c.Parent != NoParent && (c.Parent < 0 || int(c.Parent) >= i) {
			return nil, fmt.Errorf("cube: path %d (%q) has parent %d, not an earlier path", i, c.Name, c.Parent)
		}
		if _, dup := p.pathByKey[pathKey{PathID(c.Parent), c.Name}]; dup {
			return nil, fmt.Errorf("cube: path %q under parent %d defined twice", c.Name, c.Parent)
		}
		p.Path(PathID(c.Parent), c.Name)
	}
	seen := make(map[[2]int32]bool, len(in.Sev))
	for _, s := range in.Sev {
		if s.Metric < 0 || int(s.Metric) >= len(p.Metrics) || s.Path < 0 || int(s.Path) >= len(p.Paths) {
			return nil, fmt.Errorf("cube: severity references unknown metric %d or path %d", s.Metric, s.Path)
		}
		if seen[[2]int32{s.Metric, s.Path}] {
			return nil, fmt.Errorf("cube: severity for metric %d, path %d given twice", s.Metric, s.Path)
		}
		seen[[2]int32{s.Metric, s.Path}] = true
		if len(s.Vals) > p.NumLocs() {
			return nil, fmt.Errorf("cube: severity has %d values for %d locations", len(s.Vals), p.NumLocs())
		}
		for l, v := range s.Vals {
			p.Add(MetricID(s.Metric), PathID(s.Path), l, v)
		}
	}
	return p, nil
}
