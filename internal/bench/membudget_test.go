package bench

import (
	"testing"
	"time"
)

// TestRangedReplayAllocBudget pins the ranged read's claim: a one-chunk
// vtime window decodes only the chunks it overlaps, so both bytes/op
// and allocs/op must be at least 5x below decoding the whole trace,
// which has to decode everything before it could filter.
func TestRangedReplayAllocBudget(t *testing.T) {
	mat, err := traceDecode()
	if err != nil {
		t.Fatal(err)
	}
	rng, err := traceRange()
	if err != nil {
		t.Fatal(err)
	}
	mm, err := Measure("TraceDecode", mat, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Measure("TraceRange", rng, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ranged: %.0f bytes/op %.0f allocs/op; whole: %.0f bytes/op %.0f allocs/op",
		mr.BytesPerOp, mr.AllocsPerOp, mm.BytesPerOp, mm.AllocsPerOp)
	if mr.BytesPerOp*5 > mm.BytesPerOp {
		t.Errorf("ranged decode bytes/op %.0f not 5x below the whole decode's %.0f",
			mr.BytesPerOp, mm.BytesPerOp)
	}
	if mr.AllocsPerOp*5 > mm.AllocsPerOp {
		t.Errorf("ranged decode allocs/op %.0f not 5x below the whole decode's %.0f",
			mr.AllocsPerOp, mm.AllocsPerOp)
	}
}
