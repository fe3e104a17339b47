// Anomaly study: collapse the memory bandwidth under one rank of a
// perfectly balanced job with a faults.MemDegrade window (the paper cites
// Ates et al. [7] for this kind of memory antagonist) and watch the
// three-way comparison:
//
//   - the physical analysis reports wait states at the reduction,
//   - the logical analysis reports (almost) none,
//   - the hybrid classifier concludes the waits are extrinsic — caused by
//     the environment, not the algorithm.
//
// Swap the bandwidth collapse for a genuine 2x work imbalance and the verdict
// flips to intrinsic.
//
//	go run ./examples/anomalystudy
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/faults"
	"repro/internal/hybrid"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/scalasca"
	"repro/internal/simmpi"
	"repro/internal/simomp"
	"repro/internal/vtime"
	"repro/internal/work"
)

// app is a balanced bulk-synchronous kernel unless imbalance is set.
func app(r *measure.Rank, imbalance bool) {
	iters := 400.0
	if imbalance && r.Rank() == 0 {
		iters *= 2
	}
	for step := 0; step < 5; step++ {
		r.Region("stream_kernel", func() {
			r.Work(work.PerIter(work.Cost{Instr: 2e4, Flops: 2e4, Bytes: 6e4, Stmt: 700, BB: 200}, iters))
		})
		r.Allreduce([]float64{1}, simmpi.OpSum)
	}
}

func run(mode core.Mode, inject, imbalance bool) *cube.Profile {
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1))
	place, err := machine.PlaceOnePerDomain(m, 4, 1) // one rank per NUMA domain
	if err != nil {
		log.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		m.AddWorkingSet(machine.CoreID(d*m.Cfg.CoresPerDomain), 100*m.Cfg.L3PerDomain)
	}
	if inject {
		// Halve rank 0's memory bandwidth for the whole run.
		if _, err := faults.Arm(k, m, place, faults.Plan{Faults: []faults.Fault{
			{Kind: faults.MemDegrade, Domain: 0, Duration: 300, Factor: 0.5},
		}}); err != nil {
			log.Fatal(err)
		}
	}
	w := simmpi.NewWorld(k, m, place, simmpi.DefaultConfig(), simomp.DefaultCosts(), nil)
	meas := measure.New(measure.DefaultConfig(mode))
	w.Launch(func(p *simmpi.Proc) {
		r := measure.NewRank(meas, p)
		r.Begin()
		app(r, imbalance)
		r.End()
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	prof, err := scalasca.Analyze(meas.Trace)
	if err != nil {
		log.Fatal(err)
	}
	return prof
}

func main() {
	fmt.Println("case 1: balanced job + memory antagonist under rank 0")
	rep := hybrid.Compare(run(core.ModeTSC, true, false), run(core.ModeStmt, true, false), 0.2)
	rep.Render(os.Stdout, 6)

	fmt.Println("\ncase 2: genuine 2x work imbalance, no antagonist")
	rep = hybrid.Compare(run(core.ModeTSC, false, true), run(core.ModeStmt, false, true), 0.2)
	rep.Render(os.Stdout, 6)
}
