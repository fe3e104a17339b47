package vclock

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

// extract builds a trace's skeleton.
func extract(t *testing.T, tr *trace.Trace) *Skeleton {
	t.Helper()
	sk, err := Extract(trace.StreamTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// clocksOf replays a trace's skeleton and keeps every event's vector.
func clocksOf(t *testing.T, tr *trace.Trace) (*Clocks, error) {
	t.Helper()
	edges, groups := extract(t, tr).Graph()
	counts := make([]int, len(tr.Locs))
	var all []EventRef
	for li, l := range tr.Locs {
		counts[li] = len(l.Events)
		for ei := range l.Events {
			all = append(all, EventRef{li, ei})
		}
	}
	return ComputeFromEdges(counts, edges, groups, all)
}

// breaches lists the skeleton's synchronisation edges whose target stamp
// does not exceed the source's — the clock condition on every direct
// edge: messages, every member's release by every other location's
// member of its instance, forks and joins.
func breaches(t *testing.T, tr *trace.Trace) [][2]Event {
	t.Helper()
	sk := extract(t, tr)
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

func TestHappensBeforeAcrossMessage(t *testing.T) {
	c, err := clocksOf(t, handTrace())
	if err != nil {
		t.Fatal(err)
	}
	sendEv := EventRef{0, 2}
	recvEv := EventRef{1, 2}
	if !c.HappensBefore(sendEv, recvEv) {
		t.Fatal("send must happen before matching recv")
	}
	if c.HappensBefore(recvEv, sendEv) {
		t.Fatal("recv must not precede send")
	}
	// Events before the message on different locations are concurrent.
	a := EventRef{0, 0}
	b := EventRef{1, 0}
	if !c.Concurrent(a, b) {
		t.Fatal("pre-message events should be concurrent")
	}
	// Program order holds.
	if !c.HappensBefore(EventRef{0, 0}, EventRef{0, 4}) {
		t.Fatal("program order lost")
	}
}

func TestVectorComponentsMonotone(t *testing.T) {
	tr := handTrace()
	c, err := clocksOf(t, tr)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range tr.Locs {
		for ei := 1; ei < len(l.Events); ei++ {
			prev, cur := c.Vector(EventRef{li, ei - 1}), c.Vector(EventRef{li, ei})
			for i := range prev {
				if cur[i] < prev[i] {
					t.Fatalf("loc %d event %d: vector went backwards", li, ei)
				}
			}
			if cur[li] != prev[li]+1 {
				t.Fatalf("loc %d: own component must advance by one", li)
			}
		}
	}
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
	sk := extract(t, tr)
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

func TestComputeWorksOnMeasuredTrace(t *testing.T) {
	tr := measuredTrace(t, core.ModeLt1, noise.Params{})
	c, err := clocksOf(t, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check: every location's last event vector dominates its first.
	for li := range tr.Locs {
		n := len(tr.Locs[li].Events)
		if n < 2 {
			continue
		}
		if !c.HappensBefore(EventRef{li, 0}, EventRef{li, n - 1}) {
			t.Fatalf("loc %d: first event does not precede last", li)
		}
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

// referenceClocks is the textbook replay the frontier engine must agree
// with: every event gets a full vector, computed by repeatedly advancing
// each location past events whose incoming edges are satisfied.  It
// returns the vectors and the number of events left unreachable.
func referenceClocks(counts []int, edges []Edge) ([][][]uint32, int) {
	incoming := make(map[EventRef][]EventRef)
	for _, e := range edges {
		incoming[e.To] = append(incoming[e.To], e.From)
	}
	n := len(counts)
	vecs := make([][][]uint32, n)
	remaining := 0
	for l, c := range counts {
		vecs[l] = make([][]uint32, c)
		remaining += c
	}
	done := make([]int, n)
	for progressed := true; progressed; {
		progressed = false
		for l := range counts {
		next:
			for done[l] < counts[l] {
				ref := EventRef{l, done[l]}
				for _, dep := range incoming[ref] {
					if done[dep.Loc] <= dep.Index {
						break next
					}
				}
				vec := make([]uint32, n)
				if done[l] > 0 {
					copy(vec, vecs[l][done[l]-1])
				}
				vec[l]++
				for _, dep := range incoming[ref] {
					maxInto(vec, vecs[dep.Loc][dep.Index])
				}
				vecs[l][done[l]] = vec
				done[l]++
				remaining--
				progressed = true
			}
		}
	}
	return vecs, remaining
}

// TestReplayMatchesReference drives the frontier replay with random
// skeletons — message edges, collective groups (hub-safe and not:
// repeated locations, members whose entry does not precede their exit),
// cycles and edges from events past a location's end — and requires
// exactly the reference's vectors, or the reference's stuck count, with
// each group expanded into its pairwise release edges for the reference.
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
		// replay; edges out of them stay and block their targets.
		var refEdges []Edge
		for _, e := range pairs {
			if e.To.Index < counts[e.To.Loc] {
				refEdges = append(refEdges, e)
			}
		}
		want, stuck := referenceClocks(counts, refEdges)
		var all []EventRef
		for l, c := range counts {
			for i := 0; i < c; i++ {
				all = append(all, EventRef{l, i})
			}
		}
		c, err := ComputeFromEdges(counts, edges, groups, all)
		if stuck > 0 {
			cycles++
			wantErr := fmt.Sprintf("(%d events stuck)", stuck)
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("iter %d: err %v, want %s", iter, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		hubs += safe
		degenerate += len(groups) - safe
		for l := range counts {
			for i := 0; i < counts[l]; i++ {
				if got := c.Vector(EventRef{l, i}); !slices.Equal(got, want[l][i]) {
					t.Fatalf("iter %d: loc %d event %d: vector %v, want %v\ncounts %v\nedges %v\ngroups %v",
						iter, l, i, got, want[l][i], counts, edges, groups)
				}
			}
		}
	}
	t.Logf("completed replays: %d hub-safe groups, %d degenerate; %d stuck skeletons", hubs, degenerate, cycles)
	if hubs == 0 || degenerate == 0 || cycles == 0 {
		t.Fatal("generator missed a case")
	}
}

// TestHappensBeforeMatchesComponentwise checks the frontier
// happens-before test against the component-wise vector order on every
// event pair of a measured trace.
func TestHappensBeforeMatchesComponentwise(t *testing.T) {
	tr := measuredTrace(t, core.ModeLt1, noise.Params{})
	c, err := clocksOf(t, tr)
	if err != nil {
		t.Fatal(err)
	}
	less := func(va, vb []uint32) bool {
		strict := false
		for i := range va {
			if va[i] > vb[i] {
				return false
			}
			strict = strict || va[i] < vb[i]
		}
		return strict
	}
	ordered, pairs := 0, 0
	for la, a := range tr.Locs {
		for lb, b := range tr.Locs {
			for ia := range a.Events {
				for ib := range b.Events {
					ea, eb := EventRef{la, ia}, EventRef{lb, ib}
					got, want := c.HappensBefore(ea, eb), less(c.Vector(ea), c.Vector(eb))
					if got != want {
						t.Fatalf("%v -> %v: HappensBefore %v, component-wise %v", ea, eb, got, want)
					}
					pairs++
					if got && la != lb {
						ordered++
					}
				}
			}
		}
	}
	if ordered == 0 {
		t.Fatalf("no cross-location pair ordered among %d pairs", pairs)
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
