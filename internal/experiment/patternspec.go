package experiment

import (
	"repro/internal/measure"
	"repro/internal/miniapps/patterns"
)

// PatternSpecs returns the communication-pattern configurations used by
// the propagation studies (cmd/ltprop).  They live beside — not inside —
// Specs: the paper's tables iterate Specs and must keep reproducing the
// paper, while these workloads exist to give injected delays a medium to
// travel through.  The two Ring variants bracket Afzal's regimes: zero
// slack transports a delay undamped at one rank per iteration,
// RingSlack's loose lockstep absorbs it along the way.
func PatternSpecs(opt Options) []Spec {
	ring := patterns.DefaultRing()
	ringSlack := patterns.DefaultRing()
	ringSlack.Slack = 0.4
	torus := patterns.DefaultTorus()
	pipe := patterns.DefaultPipeline()
	farm := patterns.DefaultMasterWorker()
	if opt.Quick {
		ring.Iters, ringSlack.Iters, torus.Iters = 10, 10, 10
		pipe.Items, farm.Items = 10, 14
	}
	return []Spec{
		{
			Name: "Ring-16", Ranks: 16, Threads: 1, Nodes: 1,
			App:         patternApp(func(r *measure.Rank) patterns.Result { return patterns.RunRing(r, ring) }),
			Description: "lockstep halo ring — " + ring.Describe(),
		},
		{
			Name: "RingSlack-16", Ranks: 16, Threads: 1, Nodes: 1,
			App:         patternApp(func(r *measure.Rank) patterns.Result { return patterns.RunRing(r, ringSlack) }),
			Description: "halo ring with absorption slack — " + ringSlack.Describe(),
		},
		{
			Name: "Torus-16", Ranks: 16, Threads: 1, Nodes: 1,
			App:         patternApp(func(r *measure.Rank) patterns.Result { return patterns.RunTorus(r, torus) }),
			Description: "2-D periodic halo exchange — " + torus.Describe(),
		},
		{
			Name: "Pipeline-8", Ranks: 8, Threads: 1, Nodes: 1,
			App:         patternApp(func(r *measure.Rank) patterns.Result { return patterns.RunPipeline(r, pipe) }),
			Description: "linear pipeline with backpressure — " + pipe.Describe(),
		},
		{
			Name: "MasterWorker-8", Ranks: 8, Threads: 1, Nodes: 1,
			App:         patternApp(func(r *measure.Rank) patterns.Result { return patterns.RunMasterWorker(r, farm) }),
			Description: "self-scheduling task farm — " + farm.Describe(),
		},
	}
}

func patternApp(run func(r *measure.Rank) patterns.Result) App {
	return func(r *measure.Rank) AppResult {
		res := run(r)
		return AppResult{Check: res.Check}
	}
}
