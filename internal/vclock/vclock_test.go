package vclock

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/noise"
	"repro/internal/simmpi"
	"repro/internal/simomp"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/work"
)

// handTrace builds a two-location trace with one message.
func handTrace() *trace.Trace {
	tr := trace.New("lt_1")
	main := tr.Region("main", trace.RoleUser)
	send := tr.Region("MPI_Send", trace.RoleMPIP2P)
	recv := tr.Region("MPI_Recv", trace.RoleMPIP2P)
	l0 := tr.AddLocation(0, 0)
	l1 := tr.AddLocation(1, 0)
	tr.Record(l0, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Record(l0, trace.Event{Kind: trace.EvEnter, Time: 2, Region: send})
	tr.Record(l0, trace.Event{Kind: trace.EvSend, Time: 3, A: 1, B: 0, C: 8})
	tr.Record(l0, trace.Event{Kind: trace.EvExit, Time: 4, Region: send})
	tr.Record(l0, trace.Event{Kind: trace.EvExit, Time: 5, Region: main})
	tr.Record(l1, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Record(l1, trace.Event{Kind: trace.EvEnter, Time: 2, Region: recv})
	tr.Record(l1, trace.Event{Kind: trace.EvRecv, Time: 4, A: 0, B: 0, C: 8})
	tr.Record(l1, trace.Event{Kind: trace.EvExit, Time: 5, Region: recv})
	tr.Record(l1, trace.Event{Kind: trace.EvExit, Time: 6, Region: main})
	return tr
}

// breaches lists the skeleton's synchronisation edges whose target stamp
// does not exceed the source's — the clock condition on every direct
// edge: messages, every member's release by every other location's
// member of its instance, forks and joins.
func breaches(t *testing.T, tr *trace.Trace) [][2]Event {
	t.Helper()
	sk := Extract(tr)
	var out [][2]Event
	check := func(from, to Event) {
		if to.Time <= from.Time {
			out = append(out, [2]Event{from, to})
		}
	}
	for i := 0; i < sk.Recvs.Len(); i++ {
		if r := sk.Recvs.At(i); r.Peer >= 0 {
			check(sk.Sends.At(int(r.Peer)).Record(), r.Record())
		}
	}
	release := func(recs *Paged[Sync], ins []Instance) {
		for _, in := range ins {
			for _, a := range in.Members {
				for _, b := range in.Members {
					if a, b := recs.At(int(a)), recs.At(int(b)); a.Loc != b.Loc {
						check(a.Source(), b.ExitEvent())
					}
				}
			}
		}
	}
	release(&sk.Colls, sk.CollIns)
	release(&sk.Bars, sk.BarIns)
	sk.ForkJoin(check)
	return out
}

func TestValidateCleanTrace(t *testing.T) {
	if v := breaches(t, handTrace()); len(v) != 0 {
		t.Fatalf("clean trace reported %d violations", len(v))
	}
}

func TestValidateCatchesClockConditionBreach(t *testing.T) {
	tr := handTrace()
	// Corrupt the recv stamp to precede the send stamp.
	tr.Locs[1].Events[2].Time = 2
	tr.Locs[1].Events[3].Time = 2 // keep per-location order sane
	v := breaches(t, tr)
	if len(v) == 0 {
		t.Fatal("violation not detected")
	}
	if v[0][0].Time != 3 || v[0][1].Time != 2 {
		t.Fatalf("unexpected violation: %+v", v[0])
	}
}

func TestUnmatchedReceiveRejected(t *testing.T) {
	tr := trace.New("lt_1")
	main := tr.Region("main", trace.RoleUser)
	l0 := tr.AddLocation(0, 0)
	tr.Record(l0, trace.Event{Kind: trace.EvEnter, Time: 1, Region: main})
	tr.Record(l0, trace.Event{Kind: trace.EvRecv, Time: 2, A: 5, B: 0, C: 8})
	tr.Record(l0, trace.Event{Kind: trace.EvExit, Time: 3, Region: main})
	sk := Extract(tr)
	if r := sk.Recvs.At(0); sk.Recvs.Len() != 1 || r.Peer != -1 || r.EventRef != (EventRef{0, 1}) {
		t.Fatalf("%d receives, first %+v; want the one receive at loc 0 event 1 unmatched", sk.Recvs.Len(), *r)
	}
}

// measuredTrace runs a hybrid job through the real pipeline.
func measuredTrace(t *testing.T, mode core.Mode, np noise.Params) *trace.Trace {
	t.Helper()
	k := vtime.NewKernel()
	m := machine.New(k, machine.Jureca(1))
	place, err := machine.PlaceBlock(m, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nm *noise.Model
	if np != (noise.Params{}) {
		nm = noise.NewModel(5, np)
	}
	w := simmpi.NewWorld(k, m, place, simmpi.DefaultConfig(), simomp.DefaultCosts(), nm)
	meas := measure.New(measure.DefaultConfig(mode))
	w.Launch(func(p *simmpi.Proc) {
		r := measure.NewRank(meas, p)
		r.Begin()
		other := p.Rank ^ 1
		reqs := []*simmpi.Request{r.Irecv(other, 0)}
		r.Isend(other, 0, []float64{1}, 8)
		r.Waitall(reqs)
		r.ParallelFor("loop", 64, func(lo, hi int, th *measure.Thread) {
			th.Work(work.PerIter(work.Cost{Instr: 1e5, Flops: 1e5, Bytes: 1e4, Calls: 2}, float64(hi-lo)))
		})
		r.Allreduce([]float64{1}, simmpi.OpSum)
		r.End()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return meas.Trace
}

func TestLogicalTraceSatisfiesClockCondition(t *testing.T) {
	for _, mode := range core.LogicalModes() {
		tr := measuredTrace(t, mode, noise.Cluster())
		if v := breaches(t, tr); len(v) != 0 {
			t.Fatalf("%s: %d clock-condition violations in a logical trace (first: %+v)",
				mode, len(v), v[0])
		}
	}
}

// ForkJoinTargets bounds the distinct events ForkJoin's edges end at,
// which the critical path sizes its cause table by.
func TestForkJoinTargetsBoundsEdges(t *testing.T) {
	sk := Extract(measuredTrace(t, core.ModeStmt, noise.Params{}))
	targets := make(map[EventRef]bool)
	sk.ForkJoin(func(_, to Event) { targets[to.EventRef] = true })
	if len(targets) == 0 || len(targets) > sk.ForkJoinTargets() {
		t.Fatalf("%d distinct fork/join targets, bound %d", len(targets), sk.ForkJoinTargets())
	}
}

func TestTscWithSkewedClocksViolatesCondition(t *testing.T) {
	// Large clock offsets between ranks make physical stamps non-causal:
	// a message can appear to arrive before it was sent.  This is the
	// paper's first argument for logical clocks (§II).
	np := noise.Params{ClockOffsetMax: 5e-3}
	tr := measuredTrace(t, core.ModeTSC, np)
	if v := breaches(t, tr); len(v) == 0 {
		t.Fatal("expected clock-condition violations with 5 ms clock offsets")
	}
}

// referenceUnreached is the textbook frontier the walk must agree with:
// it repeatedly advances each location past events whose incoming edges
// are satisfied, and returns the number of events left unreachable.
func referenceUnreached(counts []int, edges []Edge) int {
	incoming := make(map[EventRef][]EventRef)
	for _, e := range edges {
		incoming[e.To] = append(incoming[e.To], e.From)
	}
	remaining := 0
	for _, c := range counts {
		remaining += c
	}
	done := make([]int, len(counts))
	for progressed := true; progressed; {
		progressed = false
		for l := range counts {
		next:
			for done[l] < counts[l] {
				for _, dep := range incoming[EventRef{l, done[l]}] {
					if done[dep.Loc] <= dep.Index {
						break next
					}
				}
				done[l]++
				remaining--
				progressed = true
			}
		}
	}
	return remaining
}

// TestReplayMatchesReference drives the walk with random skeletons —
// message edges, collective groups (hub-safe and not: repeated
// locations, members whose entry does not precede their exit), cycles
// and edges from events past a location's end — and requires exactly
// the reference's unreached count, with each group expanded into its
// pairwise release edges for the reference.
func TestReplayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hubs, degenerate, cycles := 0, 0, 0
	for iter := 0; iter < 2000; iter++ {
		n := 2 + rng.Intn(5)
		counts := make([]int, n)
		for l := range counts {
			counts[l] = 1 + rng.Intn(12)
		}
		ev := func(l int) EventRef { return EventRef{l, rng.Intn(counts[l] + 1)} } // may lie past the end
		var edges []Edge
		for i := rng.Intn(6); i > 0; i-- {
			a, b := rng.Intn(n), rng.Intn(n)
			edges = append(edges, Edge{From: ev(a), To: ev(b)})
		}
		var groups [][]Member
		safe := 0
		pairs := append([]Edge(nil), edges...)
		for i := rng.Intn(4); i > 0; i-- {
			var g []Member
			for _, l := range rng.Perm(n)[:1+rng.Intn(n)] {
				if rng.Intn(8) == 0 {
					l = rng.Intn(n) // occasionally a second member on one location
				}
				enter := rng.Intn(counts[l])
				exit := enter + rng.Intn(counts[l]-enter)
				if rng.Intn(6) > 0 && exit+1 < counts[l] {
					exit++
				}
				g = append(g, Member{Enter: EventRef{l, enter}, Exit: EventRef{l, exit}})
			}
			if hubSafe(g, make([]int, n), 1) {
				safe++
			}
			for _, a := range g {
				for _, b := range g {
					if a.Enter.Loc != b.Exit.Loc {
						pairs = append(pairs, Edge{From: a.Enter, To: b.Exit})
					}
				}
			}
			groups = append(groups, g)
		}
		// The reference drops edges into events past the end, like the
		// walk; edges out of them stay and block their targets.
		var refEdges []Edge
		for _, e := range pairs {
			if e.To.Index < counts[e.To.Loc] {
				refEdges = append(refEdges, e)
			}
		}
		want := referenceUnreached(counts, refEdges)
		if got := Unreached(counts, edges, groups); got != want {
			t.Fatalf("iter %d: %d events unreached, want %d\ncounts %v\nedges %v\ngroups %v",
				iter, got, want, counts, edges, groups)
		}
		if want > 0 {
			cycles++
			continue
		}
		hubs += safe
		degenerate += len(groups) - safe
	}
	t.Logf("completed walks: %d hub-safe groups, %d degenerate; %d stuck skeletons", hubs, degenerate, cycles)
	if hubs == 0 || degenerate == 0 || cycles == 0 {
		t.Fatal("generator missed a case")
	}
}

// TestPagedIndexing checks Paged's page arithmetic across the doubling
// pages and the fixed-size ones after them.
func TestPagedIndexing(t *testing.T) {
	var l Paged[int]
	for i := 0; i < 3*pageHead+pageMax/2; i++ {
		if got := l.add(i); got != i {
			t.Fatalf("add returned index %d, want %d", got, i)
		}
	}
	for i := 0; i < l.Len(); i++ {
		if got := *l.At(i); got != i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	if unsafe.Sizeof(Sync{}) > 80 {
		t.Fatalf("Sync is %d bytes, want at most 80", unsafe.Sizeof(Sync{}))
	}
}
