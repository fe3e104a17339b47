package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/jaccard"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/tracecheck"
)

// Ablation benchmarks for the design choices DESIGN.md calls out.  Each
// reports its effect as custom benchmark metrics so `go test -bench
// Ablation` doubles as the ablation study.

// BenchmarkAblationPiggyback removes the logical-clock synchronisation
// (Algorithm 1 step 2) and counts the resulting clock-condition
// violations; with piggybacks the count must be zero.
func BenchmarkAblationPiggyback(b *testing.B) {
	spec, err := experiment.SpecByName("MiniFE-1", experiment.Options{Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	violations := func(disable bool) int {
		cfg := measure.DefaultConfig(core.ModeStmt)
		cfg.DisablePiggyback = disable
		res, err := experiment.RunWithOptions(spec, experiment.RunOptions{Cfg: &cfg, Seed: 1, Noise: noise.Cluster()})
		if err != nil {
			b.Fatal(err)
		}
		return tracecheck.Verify(res.Trace, tracecheck.Options{}).Counts[tracecheck.KindClockCondition]
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		with = violations(false)
		without = violations(true)
	}
	if with != 0 {
		b.Fatalf("piggybacked trace has %d clock-condition violations", with)
	}
	if without == 0 {
		b.Fatal("ablated trace has no violations; the ablation is vacuous")
	}
	b.ReportMetric(float64(with), "violations-with-sync")
	b.ReportMetric(float64(without), "violations-without-sync")
}

// BenchmarkAblationWeightedStmt compares the future-work weighted
// statement model (lt_wstmt) against plain lt_stmt by their Jaccard
// similarity to tsc on MiniFE-1.
func BenchmarkAblationWeightedStmt(b *testing.B) {
	spec, err := experiment.SpecByName("MiniFE-1", experiment.Options{Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	var jStmt, jWStmt float64
	for i := 0; i < b.N; i++ {
		tsc, err := experiment.Run(spec, core.ModeTSC, 1, noise.Cluster(), true)
		if err != nil {
			b.Fatal(err)
		}
		stmt, err := experiment.Run(spec, core.ModeStmt, 1, noise.Cluster(), true)
		if err != nil {
			b.Fatal(err)
		}
		wstmt, err := experiment.Run(spec, core.ModeWStmt, 1, noise.Cluster(), true)
		if err != nil {
			b.Fatal(err)
		}
		jStmt = jaccard.Score(stmt.Profile.MCMap(), tsc.Profile.MCMap())
		jWStmt = jaccard.Score(wstmt.Profile.MCMap(), tsc.Profile.MCMap())
	}
	b.ReportMetric(jStmt, "J-lt_stmt")
	b.ReportMetric(jWStmt, "J-lt_wstmt")
}

// BenchmarkAblationCombinedCounter compares the future-work combined
// instruction+memory counter (lt_hwcomb) against plain lt_hwctr on
// MiniFE-2, whose memory contention is invisible to every count-based
// clock: the combined counter should score closer to tsc.
func BenchmarkAblationCombinedCounter(b *testing.B) {
	spec, err := experiment.SpecByName("MiniFE-2", experiment.Options{Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	var jHw, jComb float64
	for i := 0; i < b.N; i++ {
		tsc, err := experiment.Run(spec, core.ModeTSC, 1, noise.Cluster(), true)
		if err != nil {
			b.Fatal(err)
		}
		hw, err := experiment.Run(spec, core.ModeHwctr, 1, noise.Cluster(), true)
		if err != nil {
			b.Fatal(err)
		}
		comb, err := experiment.Run(spec, core.ModeHwComb, 1, noise.Cluster(), true)
		if err != nil {
			b.Fatal(err)
		}
		jHw = jaccard.Score(hw.Profile.MCMap(), tsc.Profile.MCMap())
		jComb = jaccard.Score(comb.Profile.MCMap(), tsc.Profile.MCMap())
	}
	if jComb <= jHw {
		b.Logf("note: combined counter (%.3f) did not beat lt_hwctr (%.3f) on this run", jComb, jHw)
	}
	b.ReportMetric(jHw, "J-lt_hwctr")
	b.ReportMetric(jComb, "J-lt_hwcomb")
}

// BenchmarkAblationBufferCap removes the per-location trace-buffer cap
// and reports the TeaLeaf-2 tsc overhead with and without it — the
// cache-pollution mechanism behind the paper's Table II.
func BenchmarkAblationBufferCap(b *testing.B) {
	spec, err := experiment.SpecByName("TeaLeaf-2", experiment.Options{Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	overhead := func(capBytes float64) float64 {
		ref, err := experiment.Run(spec, "", 1, noise.Cluster(), false)
		if err != nil {
			b.Fatal(err)
		}
		cfg := measure.DefaultConfig(core.ModeTSC)
		cfg.Overhead.BufferCapBytes = capBytes
		ins, err := experiment.RunWithOptions(spec, experiment.RunOptions{Cfg: &cfg, Seed: 1, Noise: noise.Cluster()})
		if err != nil {
			b.Fatal(err)
		}
		return 100 * (ins.Wall - ref.Wall) / ref.Wall
	}
	var capped, uncapped, none float64
	for i := 0; i < b.N; i++ {
		capped = overhead(measure.DefaultOverhead().BufferCapBytes)
		uncapped = overhead(1e12) // effectively unlimited growth
		none = overhead(1)        // buffers pinned to ~nothing
	}
	if uncapped < capped {
		b.Fatalf("uncapped buffers (%.1f%%) should cost at least the capped ones (%.1f%%)", uncapped, capped)
	}
	b.ReportMetric(none, "overhead%-no-buffers")
	b.ReportMetric(capped, "overhead%-capped")
	b.ReportMetric(uncapped, "overhead%-uncapped")
}

// BenchmarkAblationNoiseLevels reports tsc run-to-run stability (minimum
// pairwise Jaccard over 3 repetitions) at increasing noise amplitudes,
// with lt_stmt as the flat 1.0 control.
func BenchmarkAblationNoiseLevels(b *testing.B) {
	spec, err := experiment.SpecByName("MiniFE-1", experiment.Options{Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	minJ := func(mode core.Mode, scale float64) float64 {
		np := noise.Cluster().Scale(scale)
		var maps []map[string]float64
		for rep := 0; rep < 3; rep++ {
			res, err := experiment.Run(spec, mode, int64(rep+1), np, true)
			if err != nil {
				b.Fatal(err)
			}
			maps = append(maps, res.Profile.MCMap())
		}
		return jaccard.MinPairwise(maps)
	}
	var tscLow, tscHigh, stmtHigh float64
	for i := 0; i < b.N; i++ {
		tscLow = minJ(core.ModeTSC, 1)
		tscHigh = minJ(core.ModeTSC, 4)
		stmtHigh = minJ(core.ModeStmt, 4)
	}
	if stmtHigh != 1 {
		b.Fatalf("lt_stmt rep-to-rep J = %g under 4x noise, want exactly 1", stmtHigh)
	}
	b.ReportMetric(tscLow, "minJ-tsc-1x")
	b.ReportMetric(tscHigh, "minJ-tsc-4x")
	b.ReportMetric(stmtHigh, "minJ-stmt-4x")
}
