// Package repro's top-level benchmarks regenerate each table and figure
// of the paper's evaluation section (run with `go test -bench=. -benchmem`).
// They use the Quick problem sizes and two repetitions so the whole suite
// stays laptop-sized; `go run ./cmd/ltreport` produces the full-size
// report.  Micro-benchmarks for the simulation substrate follow at the
// bottom.
package repro

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiment"
)

// benchOpts are the study options used by the table/figure benchmarks.
func benchOpts() experiment.StudyOptions {
	return experiment.StudyOptions{Reps: 2, BaseSeed: 1}
}

func study(b *testing.B, name string) *experiment.Study {
	b.Helper()
	spec, err := experiment.SpecByName(name, experiment.Options{Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	st, err := experiment.RunStudy(spec, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkTableI regenerates the overhead table (paper Table I).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.TableI(io.Discard, study(b, "MiniFE-2"), study(b, "LULESH-1"), study(b, "TeaLeaf-2"))
	}
}

// BenchmarkTableII regenerates the TeaLeaf run-time table (paper Table II).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.TableII(io.Discard, []*experiment.Study{
			study(b, "TeaLeaf-1"), study(b, "TeaLeaf-2"), study(b, "TeaLeaf-3"), study(b, "TeaLeaf-4"),
		})
	}
}

// BenchmarkFig2 regenerates the MiniFE-2 structure-generation run times.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig2(io.Discard, study(b, "MiniFE-2"))
	}
}

// BenchmarkFig3 regenerates the MiniFE/LULESH Jaccard comparison.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.FigJaccard(io.Discard, "FIG 3", []*experiment.Study{
			study(b, "MiniFE-1"), study(b, "MiniFE-2"), study(b, "LULESH-1"), study(b, "LULESH-2"),
		})
	}
}

// BenchmarkFig4 regenerates the TeaLeaf Jaccard comparison.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.FigJaccard(io.Discard, "FIG 4", []*experiment.Study{
			study(b, "TeaLeaf-1"), study(b, "TeaLeaf-2"), study(b, "TeaLeaf-3"), study(b, "TeaLeaf-4"),
		})
	}
}

// BenchmarkFig5and6 regenerates the MiniFE call-path breakdowns (comp and
// wait_nxn, paper Figs. 5 and 6 share the same two studies).
func BenchmarkFig5and6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m1, m2 := study(b, "MiniFE-1"), study(b, "MiniFE-2")
		experiment.Fig5(io.Discard, m1, m2)
		experiment.Fig6(io.Discard, m1, m2)
	}
}

// BenchmarkFig7 regenerates the MiniFE-2 paradigm breakdown.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig7(io.Discard, study(b, "MiniFE-2"))
	}
}

// BenchmarkFig8and9 regenerates the LULESH-1 paradigm breakdown and the
// comp/delay-cost call-path figures.
func BenchmarkFig8and9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l1 := study(b, "LULESH-1")
		experiment.Fig8(io.Discard, l1)
		experiment.Fig9(io.Discard, l1)
	}
}

// BenchmarkStudySequential and BenchmarkStudyPooled4 run the same
// MiniFE-1 quick study with one worker and with four, so the pool's
// speedup can be read off a single `-bench 'BenchmarkStudy'` run (the
// results themselves are byte-identical — see
// internal/experiment/pool_test.go).
func BenchmarkStudySequential(b *testing.B) {
	benchStudy(b, 1)
}

func BenchmarkStudyPooled4(b *testing.B) {
	benchStudy(b, 4)
}

func benchStudy(b *testing.B, workers int) {
	spec, err := experiment.SpecByName("MiniFE-1", experiment.Options{Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	opts.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunStudy(spec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks ----
//
// The workload bodies live in internal/bench, shared with cmd/ltbench so
// that `go test -bench` and the committed BENCH_<label>.json trajectory
// files measure identical code.

func benchWorkload(b *testing.B, name string) {
	b.Helper()
	ins, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ins.Op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelMixedNeeds measures the virtual-time kernel's
// scheduling throughput with contending actions of four distinct needs.
func BenchmarkKernelMixedNeeds(b *testing.B) {
	benchWorkload(b, "KernelMixedNeeds")
}

// BenchmarkMachineContention measures the fluid model under NUMA-domain
// contention (16 streams on one domain).
func BenchmarkMachineContention(b *testing.B) {
	benchWorkload(b, "MachineContention")
}

// BenchmarkTraceRecord measures the measurement system's per-event
// recording hot path.
func BenchmarkTraceRecord(b *testing.B) {
	benchWorkload(b, "TraceRecord")
}

// BenchmarkAnalyzer measures trace-analysis throughput on a LULESH-1
// quick trace.
func BenchmarkAnalyzer(b *testing.B) {
	benchWorkload(b, "Analyzer")
}

// BenchmarkCriticalPath measures the critical-path walk on a LULESH-1
// quick tsc trace.
func BenchmarkCriticalPath(b *testing.B) {
	benchWorkload(b, "CriticalPath")
}

// BenchmarkTraceRoundTrip measures binary trace serialisation.
func BenchmarkTraceRoundTrip(b *testing.B) {
	benchWorkload(b, "TraceRoundTrip")
}
