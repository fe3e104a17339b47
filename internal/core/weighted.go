package core

import (
	"repro/internal/loc"
	"repro/internal/noise"
	"repro/internal/work"
)

// ModeWStmt is the weighted-statement effort model the paper proposes as
// future work (§VI-B: "Assigning different weights for different kinds of
// statements might improve the model further").  Instead of counting
// every statement as one unit, it forms a weighted combination of the
// countable dimensions, so that branch-heavy setup code and streaming
// loop code can carry different effort per statement.
const ModeWStmt Mode = "lt_wstmt"

// newWeighted builds the lt_wstmt clock: a Lamport clock whose effort
// between events weights statements 1, basic blocks 2.5, loop
// iterations 0.5 and instrumented calls 6.  The weights approximate
// per-statement machine cost: statements carry the base unit, basic
// blocks add branch overhead, calls add call/return overhead.  The model
// consumes no randomness and is fully noise-resilient.
func newWeighted(l *loc.Location, _ *noise.Source) Clock {
	return newLamport(ModeWStmt, l, func(d work.Counts) float64 {
		return d.Stmt + 2.5*d.BB + 0.5*d.LoopIters + 6*d.Calls
	})
}
