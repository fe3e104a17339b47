package cube

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// ImbalanceStat quantifies how unevenly a metric's severity at one call
// path spreads over locations — the Cube browser's "imbalance" view.
type ImbalanceStat struct {
	Path string
	Mean float64
	Max  float64
	// Ratio is max/mean; 1.0 is perfectly balanced.  The classic
	// "imbalance percentage" is (Ratio-1)*100.
	Ratio float64
}

// Imbalance returns per-path imbalance statistics of a metric, sorted by
// descending ratio, skipping paths whose mean severity is below minMean.
func (p *Profile) Imbalance(metric string, minMean float64) []ImbalanceStat {
	id, ok := p.MetricByName(metric)
	if !ok {
		return nil
	}
	var out []ImbalanceStat
	for path, vals := range p.rows(id) {
		if vals == nil {
			continue
		}
		var sum, max float64
		for _, v := range vals {
			sum += v
			if v > max {
				max = v
			}
		}
		mean := sum / float64(len(vals))
		if mean < minMean || mean == 0 {
			continue
		}
		out = append(out, ImbalanceStat{
			Path:  p.PathString(PathID(path)),
			Mean:  mean,
			Max:   max,
			Ratio: max / mean,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ratio != out[j].Ratio {
			return out[i].Ratio > out[j].Ratio
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// WriteCSV exports one metric's severities as CSV: one row per call path
// with per-location columns — for spreadsheet or plotting workflows.
func (p *Profile) WriteCSV(w io.Writer, metric string) error {
	id, ok := p.MetricByName(metric)
	if !ok {
		return fmt.Errorf("cube: no metric %q", metric)
	}
	cw := csv.NewWriter(w)
	header := append([]string{"path"}, p.LocNames...)
	if err := cw.Write(header); err != nil {
		return err
	}
	// Deterministic row order: by path id.
	for path, vals := range p.rows(id) {
		if vals == nil {
			continue
		}
		row := make([]string, 1+p.NumLocs())
		row[0] = p.PathString(PathID(path))
		for l, v := range vals {
			row[1+l] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
