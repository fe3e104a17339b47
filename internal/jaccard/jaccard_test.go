package jaccard

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdenticalMappingsScoreOne(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2.5}
	if s := Score(a, a); s != 1 {
		t.Fatalf("J(A,A) = %g, want 1", s)
	}
}

func TestDisjointSupportsScoreZero(t *testing.T) {
	a := map[string]float64{"x": 1}
	b := map[string]float64{"y": 1}
	if s := Score(a, b); s != 0 {
		t.Fatalf("disjoint J = %g, want 0", s)
	}
}

func TestEmptyMappings(t *testing.T) {
	if s := Score(nil, nil); s != 1 {
		t.Fatalf("J(∅,∅) = %g, want 1", s)
	}
	if s := Score(map[string]float64{"x": 1}, nil); s != 0 {
		t.Fatalf("J(A,∅) = %g, want 0", s)
	}
}

func TestKnownValue(t *testing.T) {
	a := map[string]float64{"x": 2, "y": 1}
	b := map[string]float64{"x": 1, "y": 3}
	// min: 1+1=2, max: 2+3=5
	if s := Score(a, b); math.Abs(s-0.4) > 1e-12 {
		t.Fatalf("J = %g, want 0.4", s)
	}
}

func TestNegativeAndNaNClamped(t *testing.T) {
	a := map[string]float64{"x": -5, "y": 1, "z": math.NaN()}
	b := map[string]float64{"x": 1, "y": 1}
	// After clamping: a = {y:1}, so min=1, max=1+1(x in b)=2.
	if s := Score(a, b); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("J = %g, want 0.5", s)
	}
}

func TestMinPairwise(t *testing.T) {
	ms := []map[string]float64{
		{"x": 1},
		{"x": 1},
		{"x": 2},
	}
	// Pairs: (1,1)->1, (1,2)->0.5, (1,2)->0.5.
	if s := MinPairwise(ms); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("MinPairwise = %g, want 0.5", s)
	}
	if s := MinPairwise(ms[:1]); s != 1 {
		t.Fatalf("MinPairwise of one = %g, want 1", s)
	}
}

// Properties: symmetry, range [0,1], identity.
func TestPropertyScore(t *testing.T) {
	gen := func(raw []uint16) map[string]float64 {
		m := make(map[string]float64)
		keys := []string{"a", "b", "c", "d", "e"}
		for i, v := range raw {
			if i >= len(keys) {
				break
			}
			m[keys[i]] = float64(v) / 100
		}
		return m
	}
	f := func(ra, rb []uint16) bool {
		a, b := gen(ra), gen(rb)
		s1, s2 := Score(a, b), Score(b, a)
		if math.Abs(s1-s2) > 1e-12 {
			return false
		}
		if s1 < 0 || s1 > 1 {
			return false
		}
		return Score(a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: J decreases (weakly) as one value moves away from agreement.
func TestPropertyMonotoneDivergence(t *testing.T) {
	base := map[string]float64{"x": 10, "y": 5}
	prev := 1.0
	for d := 0.0; d <= 10; d += 0.5 {
		b := map[string]float64{"x": 10 + d, "y": 5}
		s := Score(base, b)
		if s > prev+1e-12 {
			t.Fatalf("score increased with divergence at d=%g: %g > %g", d, s, prev)
		}
		prev = s
	}
}

// TestScoreIgnoresMapOrder: with values of mixed magnitude the sums
// round differently in different orders, so only a fixed key order
// gives one score.  Fifty calls must agree bit for bit.
func TestScoreIgnoresMapOrder(t *testing.T) {
	a := map[string]float64{"big": 1e16}
	b := map[string]float64{"big": 1e16, "only-b": 1}
	for i := 0; i < 8; i++ {
		k := string(rune('a' + i))
		a[k], b[k] = 1, 2
	}
	want := Score(a, b)
	for i := 0; i < 50; i++ {
		if got := Score(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Score = %v, first call gave %v", i, got, want)
		}
	}
}
