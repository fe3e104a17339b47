package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/loc"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/vtime"
	"repro/internal/work"
)

// testLoc builds a standalone location whose actor is live inside fn.
func testLoc(t *testing.T, fn func(l *loc.Location)) {
	t.Helper()
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1))
	l := &loc.Location{M: m}
	k.Spawn("loc", func(a *vtime.Actor) {
		l.Actor = a
		fn(l)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestModeLists(t *testing.T) {
	if len(AllModes()) != 6 || AllModes()[0] != ModeTSC {
		t.Fatalf("AllModes = %v", AllModes())
	}
	if len(LogicalModes()) != 5 {
		t.Fatalf("LogicalModes = %v", LogicalModes())
	}
	for _, m := range []Mode{ModeLt1, ModeLoop, ModeBB, ModeStmt} {
		if !m.Deterministic() {
			t.Errorf("%s should be deterministic", m)
		}
	}
	if ModeTSC.Deterministic() || ModeHwctr.Deterministic() {
		t.Error("tsc and lt_hwctr are noise-sensitive")
	}
}

func TestLt1StampsStrictlyIncrease(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		c := New(ModeLt1, l, nil)
		prev := uint64(0)
		for i := 0; i < 100; i++ {
			s := c.Stamp()
			if s <= prev {
				t.Fatalf("stamp %d not greater than %d", s, prev)
			}
			if s != prev+1 {
				t.Fatalf("lt_1 increment = %d, want 1", s-prev)
			}
			prev = s
		}
	})
}

func TestLamportRecvRule(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		c := New(ModeLt1, l, nil)
		s1 := c.Stamp() // 1
		c.RecvPB(100)
		s2 := c.Stamp()
		if s2 != 102 {
			t.Fatalf("stamp after RecvPB(100) = %d, want 102", s2)
		}
		c.RecvPB(50) // older piggyback must not move the clock back
		s3 := c.Stamp()
		if s3 != 103 {
			t.Fatalf("stamp after stale RecvPB = %d, want 103", s3)
		}
		_ = s1
	})
}

func TestSendPBMatchesLastStamp(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		c := New(ModeLt1, l, nil)
		s := c.Stamp()
		if pb := c.SendPB(); pb != s {
			t.Fatalf("SendPB = %d, want last stamp %d", pb, s)
		}
	})
}

func TestLoopModelCountsIterations(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		c := New(ModeLoop, l, nil)
		base := c.Stamp()
		l.Counts.Accumulate(work.Cost{LoopIters: 40, BB: 999, Stmt: 999, Instr: 999})
		s := c.Stamp()
		if s-base != 41 { // 1 + 40 iterations; other counts ignored
			t.Fatalf("lt_loop increment = %d, want 41", s-base)
		}
	})
}

func TestLt1CountsCalls(t *testing.T) {
	// lt_1 advances once per event plus once per instrumented function
	// call the work quanta stand for.
	testLoc(t, func(l *loc.Location) {
		c := New(ModeLt1, l, nil)
		base := c.Stamp()
		l.Counts.Accumulate(work.Cost{Calls: 25, BB: 9999, Instr: 9999})
		if d := c.Stamp() - base; d != 26 {
			t.Fatalf("lt_1 increment = %d, want 26 (1 event + 25 calls)", d)
		}
	})
}

func TestBBAndStmtModels(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		bb := New(ModeBB, l, nil)
		st := New(ModeStmt, l, nil)
		b0, s0 := bb.Stamp(), st.Stamp()
		l.Counts.Accumulate(work.Cost{BB: 7, Stmt: 23})
		if d := bb.Stamp() - b0; d != 8 {
			t.Fatalf("lt_bb increment = %d, want 8", d)
		}
		if d := st.Stamp() - s0; d != 24 {
			t.Fatalf("lt_stmt increment = %d, want 24", d)
		}
	})
}

func TestFractionalEffortCarries(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		c := New(ModeBB, l, nil)
		base := c.Stamp()
		// Two increments of 0.5 BB must eventually contribute one tick.
		l.Counts.BB += 0.5
		s1 := c.Stamp()
		l.Counts.BB += 0.5
		s2 := c.Stamp()
		if s1-base != 1 {
			t.Fatalf("first fractional stamp advanced %d, want 1", s1-base)
		}
		if s2-s1 != 2 {
			t.Fatalf("carried fraction lost: advanced %d, want 2", s2-s1)
		}
	})
}

func TestHwctrCountsInstructionsNoiseFree(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		c := New(ModeHwctr, l, nil)
		base := c.Stamp()
		l.Counts.Instr += 5000
		if d := c.Stamp() - base; d != 5001 {
			t.Fatalf("lt_hwctr increment = %d, want 5001", d)
		}
	})
}

func TestHwctrNoisePerturbsButLt1Not(t *testing.T) {
	nm := noise.NewModel(3, noise.Params{HWCtrRel: 0.05})
	run := func(mode Mode, seedLoc int) uint64 {
		var out uint64
		testLoc(t, func(l *loc.Location) {
			src := nm.Source(seedLoc, 0)
			c := New(mode, l, src)
			for i := 0; i < 50; i++ {
				l.Counts.Instr += 10000
				out = c.Stamp()
			}
		})
		return out
	}
	// Different noise streams give different hwctr clocks...
	if run(ModeHwctr, 0) == run(ModeHwctr, 1) {
		t.Error("lt_hwctr should differ across noise streams")
	}
	// ...but identical lt_1 clocks.
	if run(ModeLt1, 0) != run(ModeLt1, 1) {
		t.Error("lt_1 must ignore noise entirely")
	}
}

func TestTSCReflectsVirtualTime(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		c := New(ModeTSC, l, nil)
		s0 := c.Stamp()
		l.Actor.Sleep(1e-3)
		s1 := c.Stamp()
		want := uint64(1e-3 * TSCTicksPerSecond)
		if d := s1 - s0; d < want-2 || d > want+2 {
			t.Fatalf("tsc delta = %d ticks, want about %d", d, want)
		}
	})
}

func TestTSCAppliesClockOffset(t *testing.T) {
	nm := noise.NewModel(5, noise.Params{ClockOffsetMax: 1e-3})
	var withOffset, without uint64
	testLoc(t, func(l *loc.Location) {
		src := nm.Source(0, 0)
		l.Actor.Sleep(1)
		withOffset = New(ModeTSC, l, src).Stamp()
		without = New(ModeTSC, l, nil).Stamp()
	})
	if withOffset == without {
		t.Fatal("clock offset had no effect on tsc")
	}
}

func TestTSCMonotonePerLocation(t *testing.T) {
	// A negative offset could otherwise make early stamps run backwards
	// relative to the clamped start.
	nm := noise.NewModel(7, noise.Params{ClockOffsetMax: 1e-2, ClockDriftMax: 1e-6})
	testLoc(t, func(l *loc.Location) {
		c := New(ModeTSC, l, nm.Source(3, 0))
		prev := c.Stamp()
		for i := 0; i < 100; i++ {
			l.Actor.Sleep(1e-6)
			s := c.Stamp()
			if s < prev {
				t.Fatalf("tsc ran backwards: %d < %d", s, prev)
			}
			prev = s
		}
	})
}

func TestTSCNegativeOffsetDoesNotWrap(t *testing.T) {
	// Regression: a negative per-node clock offset near t=0 must clamp
	// to zero, not wrap the unsigned tick counter to ~2^64.
	nm := noise.NewModel(2, noise.Params{ClockOffsetMax: 1e-3})
	found := false
	for locID := 0; locID < 32 && !found; locID++ {
		src := nm.Source(locID, 0)
		if src.ClockOffset() >= 0 {
			continue
		}
		found = true
		testLoc(t, func(l *loc.Location) {
			c := New(ModeTSC, l, src)
			if s := c.Stamp(); s > uint64(1e9) {
				t.Fatalf("tsc stamp wrapped: %d", s)
			}
		})
	}
	if !found {
		t.Skip("no negative offset drawn")
	}
}

func TestTSCIgnoresPiggybacks(t *testing.T) {
	testLoc(t, func(l *loc.Location) {
		c := New(ModeTSC, l, nil)
		if c.SendPB() != 0 {
			t.Error("tsc SendPB should be 0")
		}
		c.RecvPB(1 << 60) // must not panic or affect stamps
		l.Actor.Sleep(1e-6)
		if s := c.Stamp(); s > uint64(1e-3*TSCTicksPerSecond) {
			t.Errorf("tsc stamp %d polluted by piggyback", s)
		}
	})
}

func TestUnknownModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Mode("bogus"), &loc.Location{}, nil)
}

// TestCheckModeMatchesNew: CheckMode accepts exactly the modes New
// builds, and its error names the rejected mode.
func TestCheckModeMatchesNew(t *testing.T) {
	for mode := range clocks {
		if err := CheckMode(mode); err != nil {
			t.Errorf("CheckMode(%q) = %v", mode, err)
		}
		if got := New(mode, &loc.Location{}, nil).Name(); got != mode {
			t.Errorf("New(%q) built a %q clock", mode, got)
		}
	}
	for _, mode := range AllModes() {
		if err := CheckMode(mode); err != nil {
			t.Errorf("paper mode %q rejected: %v", mode, err)
		}
	}
	for _, mode := range []Mode{"bogus", ""} {
		err := CheckMode(mode)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", mode)) {
			t.Errorf("CheckMode(%q) = %v, want an error naming the mode", mode, err)
		}
	}
}
