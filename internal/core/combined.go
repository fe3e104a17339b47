package core

import (
	"repro/internal/loc"
	"repro/internal/noise"
	"repro/internal/work"
)

// ModeHwComb is the combined hardware-counter model of the paper's future
// work (§VI-B: "Experiments with different hardware counters and
// combinations of hardware counters might lead to a better model").  It
// adds a memory-traffic counter to the instruction counter, weighting
// each DRAM byte by its instruction-time equivalent, so memory-bound
// effort — invisible to all the count-based clocks — finally registers.
const ModeHwComb Mode = "lt_hwcomb"

// BytesPerInstrWeight converts counted memory-traffic bytes into
// instruction equivalents.  With a contended per-thread bandwidth around
// 1.5 GB/s and a sustained instruction rate around 8 G/s, one byte of
// DRAM traffic costs about as long as five instructions.
const BytesPerInstrWeight = 5.0

// newCombined builds the combined instruction+memory counter clock.  Both
// counter read-outs carry the same relative noise as lt_hwctr.
func newCombined(l *loc.Location, src *noise.Source) Clock {
	return newLamport(ModeHwComb, l, func(d work.Counts) float64 {
		eff := d.Instr + BytesPerInstrWeight*d.Bytes
		if src != nil {
			return src.HWCtr(eff)
		}
		return eff
	})
}
