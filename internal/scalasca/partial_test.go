package scalasca

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestAnalyzeStreamPartialToleratesOpenRegions pins the live-prefix
// tolerance: a trace ending mid-run (regions still open) fails Analyze
// but analyzes under AnalyzePartial, with time accrued up to the last
// recorded event.
func TestAnalyzeStreamPartialToleratesOpenRegions(t *testing.T) {
	tr, locs := newTrace(1)
	main := tr.Region("main", trace.RoleUser)
	comp := tr.Region("solve", trace.RoleUser)
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 10, Region: comp})
	tr.Record(locs[0], trace.Event{Kind: trace.EvSend, Time: 25, A: 1, B: 7})
	// ...and the trace stops here, mid-region, as a live tail would.

	if _, err := Analyze(tr); err == nil {
		t.Fatal("strict replay accepted an unclosed region")
	}
	prof, err := AnalyzePartial(tr)
	if err != nil {
		t.Fatalf("partial replay: %v", err)
	}
	// Exclusive time accrues to the innermost frame until the trace
	// ends: 10 ticks in main, 15 in solve.
	near(t, prof.TotalByName(MTime), 25, "partial time total")
}

// TestAnalyzeStreamPartialEqualsFullOnComplete is the convergence
// guarantee the live monitor relies on: over a complete trace the
// partial and strict replays produce deeply equal profiles, so the
// observatory's final poll is exactly the post-mortem analysis.
func TestAnalyzeStreamPartialEqualsFullOnComplete(t *testing.T) {
	// A trace exercising the late-sender path (the matching passes), not
	// just clean nesting.
	tr, locs := newTrace(2)
	main := tr.Region("main", trace.RoleUser)
	send := tr.Region("MPI_Send", trace.RoleMPIP2P)
	recv := tr.Region("MPI_Recv", trace.RoleMPIP2P)
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	tr.Record(locs[0], trace.Event{Kind: trace.EvEnter, Time: 100, Region: send})
	tr.Record(locs[0], trace.Event{Kind: trace.EvSend, Time: 110, A: 1, B: 1})
	tr.Record(locs[0], trace.Event{Kind: trace.EvExit, Time: 120, Region: send})
	tr.Record(locs[0], trace.Event{Kind: trace.EvExit, Time: 200, Region: main})
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	tr.Record(locs[1], trace.Event{Kind: trace.EvEnter, Time: 10, Region: recv})
	tr.Record(locs[1], trace.Event{Kind: trace.EvRecv, Time: 115, A: 0, B: 1})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 120, Region: recv})
	tr.Record(locs[1], trace.Event{Kind: trace.EvExit, Time: 200, Region: main})

	full, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := AnalyzePartial(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, partial) {
		t.Fatal("partial replay diverged from the strict replay on a complete trace")
	}
	if full.TotalByName(MLateSender) == 0 {
		t.Fatal("vacuous comparison: no late-sender time detected")
	}
}
