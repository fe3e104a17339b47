// Package jaccard implements the generalized Jaccard score the paper uses
// to compare analysis results across timer methods (§V-B): for two
// non-negative functions A, B over a discrete set,
//
//	J(A,B) = Σ_x min(A(x), B(x)) / Σ_x max(A(x), B(x)),
//
// following Costa's generalization of the Jaccard index to multisets.
// The score is 1 for identical mappings, 0 for disjoint supports.
package jaccard

import (
	"math"
	"sort"
)

// Score computes the generalized Jaccard score of two mappings.  Missing
// keys count as zero.  Negative values are clamped to zero (severities
// are non-negative by construction; tiny negatives can appear from
// floating-point cancellation).  The sums run over the union of keys in
// sorted order, so the score does not depend on map iteration order.
func Score(a, b map[string]float64) float64 {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, seen := a[k]; !seen {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var num, den float64
	for _, k := range keys {
		av, bv := clamp(a[k]), clamp(b[k])
		num += math.Min(av, bv)
		den += math.Max(av, bv)
	}
	if den == 0 {
		return 1 // two all-zero mappings are identical
	}
	return num / den
}

func clamp(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// MinPairwise returns the minimum Score over all unordered pairs of the
// given mappings — the paper's "minimal Jaccard score between any pair of
// the five repetitions", its measure of run-to-run variability.
func MinPairwise(ms []map[string]float64) float64 {
	if len(ms) < 2 {
		return 1
	}
	min := math.Inf(1)
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			if s := Score(ms[i], ms[j]); s < min {
				min = s
			}
		}
	}
	return min
}
