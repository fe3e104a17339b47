// Package core implements the paper's central contribution: timestamp
// sources ("timers") for event tracing, including a physical clock and
// Lamport's logical clock extended with effort models.
//
// The physical clock (tsc) reads the location's simulated time-stamp
// counter: true virtual time distorted by per-node offset and drift, the
// way unsynchronised x86 TSCs behave.  It is noise-sensitive because
// virtual time itself absorbs OS detours, contention and jitter.
//
// The logical clocks follow Algorithm 1 of the paper: a per-location
// counter incremented at every event, synchronised through message
// piggybacks (on receive, C := max(C, pb+1)).  The five effort models
// decide by how much the counter advances between events:
//
//	lt_1     — by one per event.
//	lt_loop  — plus the OpenMP loop iterations executed since the last event.
//	lt_bb    — plus the LLVM basic blocks executed (the measurement layer
//	           adds X=100 blocks per OpenMP runtime call, §II-A).
//	lt_stmt  — plus the LLVM statements executed (Y=4300 per OpenMP call).
//	lt_hwctr — plus the hardware instruction-counter delta, which includes
//	           spin-waiting inside MPI/OpenMP and carries read-out noise.
//
// All logical clocks except lt_hwctr consume no randomness at all, which
// is why their traces repeat bit-for-bit (paper §V-B).
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/loc"
	"repro/internal/noise"
	"repro/internal/work"
)

// Mode names a timer implementation, using the paper's labels.
type Mode string

// The six timer modes evaluated in the paper.
const (
	ModeTSC   Mode = "tsc"
	ModeLt1   Mode = "lt_1"
	ModeLoop  Mode = "lt_loop"
	ModeBB    Mode = "lt_bb"
	ModeStmt  Mode = "lt_stmt"
	ModeHwctr Mode = "lt_hwctr"
)

// AllModes lists every timer mode in the paper's presentation order.
func AllModes() []Mode {
	return []Mode{ModeTSC, ModeLt1, ModeLoop, ModeBB, ModeStmt, ModeHwctr}
}

// LogicalModes lists the logical-clock modes only.
func LogicalModes() []Mode {
	return []Mode{ModeLt1, ModeLoop, ModeBB, ModeStmt, ModeHwctr}
}

// Deterministic reports whether the mode's traces repeat bit-for-bit
// across runs under noise (true for the pure logical clocks).
func (m Mode) Deterministic() bool {
	switch m {
	case ModeLt1, ModeLoop, ModeBB, ModeStmt, ModeWStmt:
		return true
	}
	return false
}

// TSCTicksPerSecond is the resolution of the physical clock.
const TSCTicksPerSecond = 1e9

// Clock mints event timestamps for one location.
type Clock interface {
	// Name returns the mode label.
	Name() Mode
	// Stamp returns the timestamp of an event happening now.
	Stamp() uint64
	// SendPB returns the piggyback payload to attach to an outgoing
	// message or collective contribution (the current counter).
	SendPB() uint64
	// RecvPB folds a received piggyback into the clock, enforcing the
	// Lamport clock condition C := max(C, pb+1).
	RecvPB(pb uint64)
}

// clocks maps every mode New can build to its constructor.  It is the one
// list of known modes: New and CheckMode both read it.
var clocks = map[Mode]func(l *loc.Location, src *noise.Source) Clock{
	ModeTSC: func(l *loc.Location, src *noise.Source) Clock {
		return &tscClock{loc: l, src: src}
	},
	// One tick per event.  Stamp already adds one per trace record; the
	// effort model adds the instrumented function calls the work quanta
	// stand for, which the real lt_1 would each see as an event of their
	// own.
	ModeLt1: func(l *loc.Location, _ *noise.Source) Clock {
		return newLamport(ModeLt1, l, func(d work.Counts) float64 { return d.Calls })
	},
	ModeLoop: func(l *loc.Location, _ *noise.Source) Clock {
		return newLamport(ModeLoop, l, func(d work.Counts) float64 { return d.LoopIters })
	},
	ModeBB: func(l *loc.Location, _ *noise.Source) Clock {
		return newLamport(ModeBB, l, func(d work.Counts) float64 { return d.BB })
	},
	ModeStmt: func(l *loc.Location, _ *noise.Source) Clock {
		return newLamport(ModeStmt, l, func(d work.Counts) float64 { return d.Stmt })
	},
	ModeHwctr: func(l *loc.Location, src *noise.Source) Clock {
		return newLamport(ModeHwctr, l, func(d work.Counts) float64 {
			if src != nil {
				return src.HWCtr(d.Instr)
			}
			return d.Instr
		})
	},
	ModeWStmt: func(l *loc.Location, src *noise.Source) Clock {
		return NewWeighted(l, DefaultWeights(), src)
	},
	ModeHwComb: NewCombined,
}

// CheckMode returns an error naming mode, and the modes New knows, unless
// New can build it.  Entry points call it before anything runs, so a
// typo fails once and up front rather than inside the first actor.
func CheckMode(mode Mode) error {
	if _, ok := clocks[mode]; ok {
		return nil
	}
	known := make([]string, 0, len(clocks))
	for m := range clocks {
		known = append(known, string(m))
	}
	sort.Strings(known)
	return fmt.Errorf("core: unknown clock mode %q (known: %s)", mode, strings.Join(known, ", "))
}

// New builds the clock of the given mode for a location.  src may be nil
// (noise-free); it is consulted only by tsc (clock offset/drift) and
// lt_hwctr (counter read-out noise).  It panics on a mode CheckMode
// rejects.
func New(mode Mode, l *loc.Location, src *noise.Source) Clock {
	build, ok := clocks[mode]
	if !ok {
		panic(CheckMode(mode))
	}
	return build(l, src)
}

// tscClock is the physical timer: the x86 time-stamp counter with
// per-node offset and drift.  Piggybacks are ignored — physical clocks do
// not synchronise through messages.
type tscClock struct {
	loc  *loc.Location
	src  *noise.Source
	last uint64
}

func (c *tscClock) Name() Mode { return ModeTSC }

func (c *tscClock) Stamp() uint64 {
	t := c.loc.Now()
	if c.src != nil {
		t = c.src.PhysicalTime(t)
	}
	if t < 0 {
		// A negative clock offset near program start must not wrap the
		// unsigned tick counter.
		t = 0
	}
	ticks := uint64(t * TSCTicksPerSecond)
	// A location's own TSC never runs backwards.
	if ticks < c.last {
		ticks = c.last
	}
	c.last = ticks
	return ticks
}

func (c *tscClock) SendPB() uint64 { return 0 }
func (c *tscClock) RecvPB(uint64)  {}

// lamport implements Algorithm 1 with a pluggable effort model.
type lamport struct {
	mode    Mode
	loc     *loc.Location
	effort  func(work.Counts) float64
	counter uint64
	frac    float64     // fractional effort carried between events
	last    work.Counts // counts snapshot at the previous event
}

func newLamport(mode Mode, l *loc.Location, effort func(work.Counts) float64) *lamport {
	return &lamport{mode: mode, loc: l, effort: effort}
}

func (c *lamport) Name() Mode { return c.mode }

// Stamp advances the counter by one (guaranteeing strictly increasing
// stamps, §II-A) plus the effort accumulated since the last event.
func (c *lamport) Stamp() uint64 {
	cur := c.loc.Counts
	delta := work.Counts{
		LoopIters: cur.LoopIters - c.last.LoopIters,
		BB:        cur.BB - c.last.BB,
		Stmt:      cur.Stmt - c.last.Stmt,
		Instr:     cur.Instr - c.last.Instr,
		Calls:     cur.Calls - c.last.Calls,
		Bytes:     cur.Bytes - c.last.Bytes,
	}
	c.last = cur
	c.frac += c.effort(delta)
	inc := uint64(c.frac)
	c.frac -= float64(inc)
	c.counter += 1 + inc
	return c.counter
}

func (c *lamport) SendPB() uint64 { return c.counter }

func (c *lamport) RecvPB(pb uint64) {
	if pb+1 > c.counter {
		c.counter = pb + 1
	}
}
