package vtime

import "testing"

// TestSchedulingStepAllocBudget is the allocation gate for the kernel's
// hot path: a 2000-action contention workload may allocate only its
// fixed setup (kernel, resource, actors, goroutines, grown-once queues).
// The per-step loop — submit, attach, dirty-set flush, water-fill, heap
// moves, completion — must be allocation-free; before the batched
// resettling and the scratch-based submission this workload allocated
// roughly nine objects per action.
func TestSchedulingStepAllocBudget(t *testing.T) {
	avg := testing.AllocsPerRun(5, func() {
		k := NewKernel()
		bw := k.NewResource("bw", 100)
		for i := 0; i < 8; i++ {
			k.Spawn("w", func(a *Actor) {
				for j := 0; j < 250; j++ {
					a.Execute(Action{Work: 1, RateCap: 2, Res: bw, ResPerUnit: 1})
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	// Observed ~60 setup allocations; 400 leaves slack for runtime noise
	// while still failing loudly if stepping regresses to per-action
	// allocation (which would cost 2000+ here).
	if avg > 400 {
		t.Errorf("2000-action simulation allocated %.0f objects on average; scheduling steps must stay allocation-free (setup budget 400)", avg)
	}
}

// TestPostRecyclesActionShells gates the detached-action freelist: a
// chained Post allocates at most two shells (the callback posts the next
// link before its own shell is recycled, so the chain alternates between
// two) instead of one per Post.
func TestPostRecyclesActionShells(t *testing.T) {
	k := NewKernel()
	var chain func(depth int)
	chain = func(depth int) {
		if depth == 0 {
			return
		}
		k.Post(Action{Delay: 0.25}, func() { chain(depth - 1) })
	}
	k.Spawn("starter", func(a *Actor) { chain(64) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(k.freeActions); n > 2 {
		t.Fatalf("freelist holds %d shells after a 64-link Post chain, want at most 2", n)
	}
}

// spawnRunAllocs is the average allocation count of a simulation with n
// actors, each executing a few actions on one shared resource.
func spawnRunAllocs(t *testing.T, n int) float64 {
	t.Helper()
	return testing.AllocsPerRun(20, func() {
		k := NewKernel()
		bw := k.NewResource("bw", 100)
		for i := 0; i < n; i++ {
			k.Spawn("w", func(a *Actor) {
				for j := 0; j < 4; j++ {
					a.Execute(Action{Work: 1, RateCap: 2, Res: bw, ResPerUnit: 1})
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPerActorSpawnAllocBudget gates what one more actor costs: the
// Actor, its resume channel, its goroutine and its body's closure, plus
// amortised queue growth — about 4.3 allocations.  The difference
// between a 32- and a 16-actor run isolates that cost from the fixed
// setup, which the loose budget of TestSchedulingStepAllocBudget cannot
// see; a second per-actor channel reads about 5.3 here.
func TestPerActorSpawnAllocBudget(t *testing.T) {
	perActor := (spawnRunAllocs(t, 32) - spawnRunAllocs(t, 16)) / 16
	if perActor > 4.5 {
		t.Errorf("each spawned actor costs %.2f allocations, budget 4.5", perActor)
	}
}
