package core

import (
	"testing"

	"repro/internal/loc"
	"repro/internal/work"
)

func TestWeightedModelCombinesCounts(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		c := New(ModeWStmt, l, nil)
		base := c.Stamp()
		l.Counts.Accumulate(work.Cost{Stmt: 10, BB: 4, LoopIters: 4, Calls: 2})
		// effort = 10*1 + 4*2.5 + 4*0.5 + 2*6 = 34, plus the structural +1.
		if d := c.Stamp() - base; d != 35 {
			t.Fatalf("weighted increment = %d, want 35", d)
		}
	})
}

func TestWeightedModeRegistered(t *testing.T) {
	if !ModeWStmt.Deterministic() {
		t.Fatal("lt_wstmt must be deterministic")
	}
	testLoc(t, func(l *loc.Location) {
		c := New(ModeWStmt, l, nil)
		if c.Name() != ModeWStmt {
			t.Fatalf("mode = %s", c.Name())
		}
		s1 := c.Stamp()
		l.Counts.Stmt += 100
		s2 := c.Stamp()
		if s2 <= s1 {
			t.Fatal("weighted clock did not advance with statements")
		}
	})
}

func TestWeightedRespectsLamportRules(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		c := New(ModeWStmt, l, nil)
		c.Stamp()
		c.RecvPB(1000)
		if s := c.Stamp(); s <= 1000 {
			t.Fatalf("stamp %d does not exceed received piggyback", s)
		}
	})
}
