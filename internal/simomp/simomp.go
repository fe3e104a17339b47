// Package simomp is an OpenMP-like shared-memory runtime on top of the
// vtime kernel.  Each team owns one persistent worker actor per thread
// (thread 0 is the team's master, typically an MPI rank's main actor);
// parallel regions fork work to the pool and join at the end.  The only
// worksharing constructs are the ones the mini-apps use: static loops and
// barriers.
//
// The runtime is deliberately hook-free: the measurement layer
// (internal/measure) wraps these primitives the way Opari2 instruments
// OpenMP constructs in the paper, recording fork/join/barrier events
// around the raw calls.
package simomp

import (
	"fmt"

	"repro/internal/loc"
	"repro/internal/vtime"
)

// Costs models the intrinsic overhead of the OpenMP runtime in seconds.
// These costs exist with or without instrumentation; LULESH's
// ApplyMaterialPropertiesForElems, with its many tiny loops, owes its
// "OpenMP management" time to them (paper §V-C3).
type Costs struct {
	Fork          float64 // master-side cost to start a parallel region
	ForkPerThread float64 // additional master cost per worker woken
	Wake          float64 // per-worker cost to pick up a region
	Barrier       float64 // per-thread cost of one barrier episode
	BarrierLog    float64 // additional per-thread barrier cost per log2(team)
	Join          float64 // master-side cost to end a parallel region
}

// DefaultCosts returns overheads typical of a tuned OpenMP runtime.  The
// team-size-dependent terms reflect how barrier trees deepen and fork
// fan-out widens with thread count (cf. Iwainsky et al. [34] on OpenMP
// construct scalability), which matters for TeaLeaf's 64- and 128-thread
// configurations.
func DefaultCosts() Costs {
	return Costs{
		Fork: 1.2e-6, ForkPerThread: 0.05e-6,
		Wake:    0.4e-6,
		Barrier: 0.4e-6, BarrierLog: 0.15e-6,
		Join: 0.8e-6,
	}
}

// forkCost is the master-side cost of starting a region for n threads.
func (c Costs) forkCost(n int) float64 {
	return c.Fork + c.ForkPerThread*float64(n-1)
}

// barrierCost is the per-thread cost of a barrier in a team of n.
func (c Costs) barrierCost(n int) float64 {
	cost := c.Barrier
	for m := 1; m < n; m *= 2 {
		cost += c.BarrierLog
	}
	return cost
}

// Team is one rank's pool of OpenMP threads.
type Team struct {
	size  int
	locs  []*loc.Location
	costs Costs

	workCond *vtime.Cond
	joinCond *vtime.Cond
	barCond  *vtime.Cond

	regionGen  int
	job        func(*Thread)
	joined     int
	barGen     int
	barCount   int
	quit       bool
	inParallel bool
}

// Thread is one thread's view of the current parallel region.
type Thread struct {
	ID   int
	Team *Team
	Loc  *loc.Location
}

// NewTeam creates a team over the given locations.  locs[0] must be the
// location of the calling master actor; the remaining locations get
// persistent worker actors spawned on the kernel.  Call Close when the
// rank is done, or the workers will hold the simulation open.
func NewTeam(k *vtime.Kernel, locs []*loc.Location, costs Costs) *Team {
	if len(locs) == 0 {
		panic("simomp: team needs at least one location")
	}
	t := &Team{
		size:     len(locs),
		locs:     locs,
		costs:    costs,
		workCond: k.NewCond("omp-work"),
		joinCond: k.NewCond("omp-join"),
		barCond:  k.NewCond("omp-barrier"),
	}
	for i := 1; i < t.size; i++ {
		i := i
		name := fmt.Sprintf("omp-worker-r%d-t%d", locs[i].Rank, i)
		locs[i].Actor = k.Spawn(name, func(a *vtime.Actor) {
			locs[i].Actor = a
			t.workerLoop(a, i)
		})
	}
	return t
}

// Size returns the number of threads in the team.
func (t *Team) Size() int { return t.size }

// Locations returns the team's locations, master first.
func (t *Team) Locations() []*loc.Location { return t.locs }

// Costs returns the runtime overhead model.
func (t *Team) Costs() Costs { return t.costs }

func (t *Team) workerLoop(a *vtime.Actor, tid int) {
	seen := 0
	for {
		for t.regionGen == seen && !t.quit {
			t.workCond.Wait(a)
		}
		if t.quit {
			return
		}
		seen = t.regionGen
		a.Compute(t.costs.Wake)
		t.job(&Thread{ID: tid, Team: t, Loc: t.locs[tid]})
		t.joined++
		if t.joined == t.size-1 {
			t.joinCond.Signal()
		}
	}
}

// Parallel runs fn on every thread of the team (including the calling
// master as thread 0) and returns when all threads have finished.  There
// is no implicit barrier beyond the join itself; instrumented code adds an
// explicit Barrier to model OpenMP's implicit one, so that barrier waiting
// time is observable.
func (t *Team) Parallel(fn func(*Thread)) {
	if t.inParallel {
		panic("simomp: nested parallel regions are not supported")
	}
	master := t.locs[0].Actor
	if t.size == 1 {
		t.inParallel = true
		fn(&Thread{ID: 0, Team: t, Loc: t.locs[0]})
		t.inParallel = false
		return
	}
	t.inParallel = true
	t.job = fn
	t.regionGen++
	master.Compute(t.costs.forkCost(t.size))
	t.workCond.Broadcast()
	fn(&Thread{ID: 0, Team: t, Loc: t.locs[0]})
	for t.joined < t.size-1 {
		t.joinCond.Wait(master)
	}
	t.joined = 0
	t.job = nil
	master.Compute(t.costs.Join)
	t.inParallel = false
}

// Close shuts down the worker pool.  The master must not be inside a
// parallel region.
func (t *Team) Close() {
	if t.inParallel {
		panic("simomp: Close inside parallel region")
	}
	t.quit = true
	t.workCond.Broadcast()
}

// StaticChunk partitions n iterations over the team statically (OpenMP
// schedule(static)) and returns this thread's [lo, hi) range.
func (th *Thread) StaticChunk(n int) (lo, hi int) {
	size := th.Team.size
	lo = th.ID * n / size
	hi = (th.ID + 1) * n / size
	return lo, hi
}

// Barrier synchronises all threads of the team.  It returns the virtual
// time at which the barrier released, which instrumented code uses to
// split waiting time from barrier overhead.
func (th *Thread) Barrier() (release float64) {
	t := th.Team
	a := th.Loc.Actor
	a.Compute(t.costs.barrierCost(t.size))
	gen := t.barGen
	t.barCount++
	if t.barCount == t.size {
		t.barCount = 0
		t.barGen++
		t.barCond.Broadcast()
		return a.Now()
	}
	for t.barGen == gen {
		t.barCond.Wait(a)
	}
	return a.Now()
}

// ParallelFor is the fused "omp parallel for" convenience: fork, run body
// over each thread's static chunk, implicit barrier, join.  body receives
// the chunk bounds and the executing thread.
func (t *Team) ParallelFor(n int, body func(lo, hi int, th *Thread)) {
	t.Parallel(func(th *Thread) {
		lo, hi := th.StaticChunk(n)
		body(lo, hi, th)
		th.Barrier()
	})
}
