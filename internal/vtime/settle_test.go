package vtime

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The tests in this file pin the exact semantics of the coalesced
// dirty-set resettling (kernel.go flushDirty): capacity and membership
// changes within one scheduling instant are settled once at the old
// rates and re-shared once at the final configuration, and the resulting
// completion times are bit-exact, not merely within tolerance.  The
// chosen work sizes and capacities make every intermediate value exactly
// representable in binary floating point, so == assertions are valid.

// Satellite regression for the SetCapacity double-resettle fix: a
// capacity change in the middle of a work phase settles progress once at
// the old rate and re-shares once at the new capacity.  30 units at rate
// 10 for 1 s leaves 20, which the doubled capacity finishes in exactly
// 1 s more.
func TestSetCapacityMidPhaseExactTiming(t *testing.T) {
	k := NewKernel()
	bw := k.NewResource("bw", 10)
	var end float64
	k.Spawn("worker", func(a *Actor) {
		a.Execute(Action{Work: 30, Res: bw, ResPerUnit: 1})
		end = a.Now()
	})
	k.Spawn("ctrl", func(a *Actor) {
		a.Sleep(1)
		bw.SetCapacity(20)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 2.0 {
		t.Fatalf("worker finished at %.17g, want exactly 2 (settle at old rate, reshare at new capacity)", end)
	}
	if got := bw.Capacity(); got != 20 {
		t.Fatalf("capacity %g after SetCapacity(20)", got)
	}
}

// A zero-work action submitted at the same instant a peer detaches must
// complete through the heap, after the detaching peer (its submission
// sequence number is higher), and at exactly the shared instant.
func TestZeroWorkRacesDetachSameInstant(t *testing.T) {
	k := NewKernel()
	bw := k.NewResource("bw", 10)
	type fin struct {
		who string
		at  float64
	}
	var done []fin
	k.Spawn("w1", func(a *Actor) {
		a.Execute(Action{Work: 10, Res: bw, ResPerUnit: 1}) // alone: ends at t=1
		done = append(done, fin{"w1", a.Now()})
	})
	k.Spawn("zero", func(a *Actor) {
		a.Sleep(1) // attach the zero-work action exactly when w1 detaches
		a.Execute(Action{Work: 1e-15, Res: bw, ResPerUnit: 1})
		done = append(done, fin{"zero", a.Now()})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done[0].who != "w1" || done[1].who != "zero" {
		t.Fatalf("completion order %+v, want w1 before zero", done)
	}
	for _, f := range done {
		if f.at != 1.0 {
			t.Fatalf("%s finished at %.17g, want exactly 1", f.who, f.at)
		}
	}
}

// SetCapacity from a Post callback while the resource is already dirty
// (a member detached at the same instant) must coalesce into the same
// single settle/reshare: w2 runs at rate 5 until t=1 (sharing with w1),
// then alone at the doubled capacity 20, finishing its remaining 30
// units at exactly t=2.5.  This is the live shape of the fault
// injector's capacity windows (internal/faults armCapacityWindow).
func TestSetCapacityFromPostWhileDirty(t *testing.T) {
	k := NewKernel()
	bw := k.NewResource("bw", 10)
	var end1, end2 float64
	k.Spawn("w1", func(a *Actor) {
		a.Execute(Action{Work: 5, Res: bw, ResPerUnit: 1})
		end1 = a.Now()
	})
	k.Spawn("w2", func(a *Actor) {
		a.Execute(Action{Work: 35, Res: bw, ResPerUnit: 1})
		end2 = a.Now()
	})
	k.Post(Action{Delay: 1}, func() {
		// Fires at the instant w1 completes: the resource is dirty from
		// the detach when this capacity change lands on top of it.
		bw.SetCapacity(20)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end1 != 1.0 {
		t.Fatalf("w1 finished at %.17g, want exactly 1", end1)
	}
	if end2 != 2.5 {
		t.Fatalf("w2 finished at %.17g, want exactly 2.5", end2)
	}
}

// referenceShare is the oracle for the kernel's need-ordered members: the
// water-fill computed directly, by a stable sort of the attach-ordered
// members by need and then the fill over the sorted copy.  It returns
// that order and each sorted member's rate.
func referenceShare(attached []*Action, capacity float64) ([]*Action, []float64) {
	need := func(a *Action) float64 {
		if a.RateCap == 0 {
			return math.Inf(1)
		}
		return a.RateCap * a.ResPerUnit
	}
	order := append([]*Action(nil), attached...)
	sort.SliceStable(order, func(i, j int) bool { return need(order[i]) < need(order[j]) })
	rates := make([]float64, len(order))
	left := capacity
	for i, a := range order {
		alloc := left / float64(len(order)-i)
		if nd := need(a); nd < alloc {
			alloc = nd
		}
		left -= alloc
		rates[i] = alloc / a.ResPerUnit
	}
	return order, rates
}

// Random attach, detach and capacity sequences on one resource: after
// every flush the need-ordered members must be exactly the stable sort of
// the attach-ordered members, each member's rate must carry the reference
// water-fill's bits, and each resIndex must be its member's position.
// Rate caps and per-unit costs come from small sets, so equal needs and
// unbounded (RateCap 0) members are common.
func TestNeedOrderedMembersMatchStableSort(t *testing.T) {
	rateCaps := []float64{0, 0, 1, 2, 3}
	perUnit := []float64{0.5, 1, 2}
	capacities := []float64{1, 3, 7.5, 10}
	works := []float64{1e-15, 1, 5}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		r := k.NewResource("bw", capacities[rng.Intn(len(capacities))])
		var attached []*Action
		for step := 0; step < 200; step++ {
			for ops := 1 + rng.Intn(3); ops > 0; ops-- {
				switch op := rng.Intn(10); {
				case op < 5 || len(attached) == 0:
					a := &Action{
						Work:       works[rng.Intn(len(works))],
						RateCap:    rateCaps[rng.Intn(len(rateCaps))],
						Res:        r,
						ResPerUnit: perUnit[rng.Intn(len(perUnit))],
					}
					k.submit(a)
					attached = append(attached, a)
				case op < 9:
					i := rng.Intn(len(attached))
					a := attached[i]
					if a.heapIndex >= 0 {
						k.heap.remove(a.heapIndex)
						a.heapIndex = -1
					}
					a.settle(k.now)
					r.detach(a)
					k.markDirty(r)
					a.phase = phaseDone
					attached = append(attached[:i], attached[i+1:]...)
				default:
					r.SetCapacity(capacities[rng.Intn(len(capacities))])
				}
			}
			k.flushDirty()
			order, rates := referenceShare(attached, r.capacity)
			if len(r.members) != len(order) {
				t.Fatalf("seed %d step %d: %d members, want %d", seed, step, len(r.members), len(order))
			}
			for i, m := range r.members {
				if m != order[i] {
					t.Fatalf("seed %d step %d: member %d (seq %d) is not the stable sort's (seq %d)",
						seed, step, i, m.seq, order[i].seq)
				}
				if m.resIndex != i {
					t.Fatalf("seed %d step %d: member %d has resIndex %d", seed, step, i, m.resIndex)
				}
				if math.Float64bits(m.rate) != math.Float64bits(rates[i]) {
					t.Fatalf("seed %d step %d: member %d rate %.17g, reference %.17g",
						seed, step, i, m.rate, rates[i])
				}
			}
			k.now += 0.25 * float64(rng.Intn(3))
		}
	}
}
