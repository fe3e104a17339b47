package measure

import "repro/internal/core"

// Overhead models the run-time cost of the measurement system itself.
// The logical clocks are insensitive to these costs by construction —
// instrumentation instructions are executed but not counted as
// application effort — yet the costs still consume real (virtual) time
// and cache, which is what distorts tsc measurements (paper §V-A, §V-C5).
type Overhead struct {
	// EventInstr is the instruction cost of recording one event.
	EventInstr float64
	// CounterReadInstr is the extra per-event cost of reading the
	// hardware counter (lt_hwctr mode only).
	CounterReadInstr float64
	// CallInstr is the amortised fast-path cost per instrumented
	// function call a work quantum stands for (Cost.Calls).
	CallInstr float64
	// CallCounterInstr is the per-call counter read-out cost in
	// lt_hwctr mode (an rdpmc-style read at every call boundary).
	CallCounterInstr float64
	// EventBytes is the memory traffic of writing one event record.
	EventBytes float64
	// BufferBytesPerEvent is the resident trace-buffer growth per event;
	// it is added to the location's NUMA-domain working set and competes
	// with the application for L3 (TeaLeaf's misleading tsc overhead).
	BufferBytesPerEvent float64
	// BufferCapBytes caps the per-location buffer working set, modelling
	// Score-P's fixed preallocated trace memory.
	BufferCapBytes float64
	// WSUpdateEvery batches working-set updates (events).
	WSUpdateEvery int
	// PerBBInstr is the per-executed-basic-block counting cost of the
	// LLVM plugin in lt_bb mode.
	PerBBInstr float64
	// PerStmtInstr is the per-statement counting cost in lt_stmt mode.
	PerStmtInstr float64
	// PerIterInstr is the per-loop-iteration counting cost of the Opari2
	// instrumentation in lt_loop mode.
	PerIterInstr float64
	// FlushThresholdInstr batches pending instrumentation work into one
	// simulated quantum once it exceeds this many instructions.
	FlushThresholdInstr float64
}

// DefaultOverhead returns instrumentation costs in the regime the paper
// reports: tsc/lt_1/lt_loop cheap, lt_bb/lt_stmt expensive in call-dense
// code, lt_hwctr dominated by counter reads.
func DefaultOverhead() Overhead {
	return Overhead{
		EventInstr:       370,
		CounterReadInstr: 2600,
		CallInstr:        25,
		CallCounterInstr: 1300, // rdpmc-style read pair per call, ~160 ns
		EventBytes:       64,
		// The simulated jobs run trimmed iteration counts; the buffer
		// growth per event is scaled up so that the cache pressure of a
		// full-length production trace (hundreds of MB per location, as
		// on the paper's TeaLeaf runs) is represented faithfully.
		BufferBytesPerEvent: 2000,
		BufferCapBytes:      320e3,
		WSUpdateEvery:       64,
		PerBBInstr:          4.0,
		PerStmtInstr:        1.15,
		PerIterInstr:        0.4,
		FlushThresholdInstr: 20000,
	}
}

// Config selects the timer mode and instrumentation behaviour of one
// measurement run.
type Config struct {
	// Mode is the timer to use for timestamps.
	Mode core.Mode
	// Overhead models the measurement system's own costs.
	Overhead Overhead
	// XBBPerOmpCall is the constant number of basic blocks charged per
	// OpenMP runtime call in lt_bb mode (paper §II-A, X=100).
	XBBPerOmpCall float64
	// YStmtPerOmpCall is the statement analogue (Y=4300).
	YStmtPerOmpCall float64
	// DisablePiggyback turns off the logical-clock synchronisation
	// messages (step 2 of the paper's Algorithm 1).  Ablation only: the
	// resulting traces violate the clock condition across messages,
	// which internal/tracecheck's clock-condition check demonstrates
	// (BenchmarkAblationPiggyback).
	DisablePiggyback bool
}

// DefaultConfig returns the paper's constants for the given mode.
func DefaultConfig(mode core.Mode) Config {
	return Config{
		Mode:            mode,
		Overhead:        DefaultOverhead(),
		XBBPerOmpCall:   100,
		YStmtPerOmpCall: 4300,
	}
}
