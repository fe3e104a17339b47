package vtime

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

const timeTol = 1e-9

func near(t *testing.T, got, want float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > timeTol*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: got %.12g, want %.12g", msg, got, want)
	}
}

func TestSleepAdvancesTime(t *testing.T) {
	k := NewKernel()
	var end float64
	k.Spawn("sleeper", func(a *Actor) {
		a.Sleep(2.5)
		a.Sleep(1.5)
		end = a.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, end, 4.0, "end time")
	near(t, k.Now(), 4.0, "kernel time")
}

func TestComputeDedicated(t *testing.T) {
	k := NewKernel()
	var end float64
	k.Spawn("worker", func(a *Actor) {
		a.Compute(3)
		end = a.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, end, 3, "compute end")
}

func TestZeroCostExecuteIsInstant(t *testing.T) {
	k := NewKernel()
	steps := uint64(0)
	k.Spawn("noop", func(a *Actor) {
		for i := 0; i < 1000; i++ {
			a.Execute(Action{})
		}
		steps = k.Steps()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 0 {
		t.Fatalf("zero-cost executes took %d scheduling steps, want 0", steps)
	}
	near(t, k.Now(), 0, "time after no-ops")
}

func TestEqualSharingHalvesRate(t *testing.T) {
	k := NewKernel()
	bw := k.NewResource("bw", 10) // 10 units/s
	var t1, t2 float64
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("stream", func(a *Actor) {
			// 10 units of work at 1 resource unit per work unit:
			// alone it takes 1 s, shared it takes 2 s.
			a.Execute(Action{Work: 10, Res: bw, ResPerUnit: 1})
			if i == 0 {
				t1 = a.Now()
			} else {
				t2 = a.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, t1, 2, "first stream")
	near(t, t2, 2, "second stream")
}

func TestSharingReleasesBandwidth(t *testing.T) {
	// Stream A has 10 units, stream B has 30 units, capacity 10/s.
	// Shared at 5/s each until A finishes at t=2 (A did 10).  B then has
	// 20 left at full 10/s, finishing at t=4.
	k := NewKernel()
	bw := k.NewResource("bw", 10)
	var ta, tb float64
	k.Spawn("A", func(a *Actor) {
		a.Execute(Action{Work: 10, Res: bw, ResPerUnit: 1})
		ta = a.Now()
	})
	k.Spawn("B", func(a *Actor) {
		a.Execute(Action{Work: 30, Res: bw, ResPerUnit: 1})
		tb = a.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, ta, 2, "A finish")
	near(t, tb, 4, "B finish")
}

func TestWaterFillingWithRateCaps(t *testing.T) {
	// Capacity 12.  Three actions, ResPerUnit 1.  One is capped at rate 2
	// (needs 2), so the other two share the remaining 10 → 5 each.
	k := NewKernel()
	bw := k.NewResource("bw", 12)
	var tCap, tFast1, tFast2 float64
	k.Spawn("capped", func(a *Actor) {
		a.Execute(Action{Work: 4, RateCap: 2, Res: bw, ResPerUnit: 1})
		tCap = a.Now()
	})
	k.Spawn("fast1", func(a *Actor) {
		a.Execute(Action{Work: 10, Res: bw, ResPerUnit: 1})
		tFast1 = a.Now()
	})
	k.Spawn("fast2", func(a *Actor) {
		a.Execute(Action{Work: 10, Res: bw, ResPerUnit: 1})
		tFast2 = a.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, tCap, 2, "capped finish (rate 2, work 4)")
	near(t, tFast1, 2, "fast1 finish (rate 5, work 10)")
	near(t, tFast2, 2, "fast2 finish")
}

func TestDelayThenWork(t *testing.T) {
	k := NewKernel()
	bw := k.NewResource("link", 100)
	var end float64
	k.Spawn("msg", func(a *Actor) {
		// 1 s latency + 200 units at 100/s = 3 s total.
		a.Execute(Action{Delay: 1, Work: 200, Res: bw, ResPerUnit: 1})
		end = a.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, end, 3, "latency+transfer")
}

func TestDelayedJoinerShares(t *testing.T) {
	// A starts at t=0 with 20 units on a 10/s resource.  B joins at t=1
	// (after a 1 s delay) with 5 units.  From t=1 both run at 5/s; B
	// finishes at t=2 (5 units), A has done 10+5=15, 5 left at 10/s →
	// finishes t=2.5.
	k := NewKernel()
	bw := k.NewResource("bw", 10)
	var ta, tb float64
	k.Spawn("A", func(a *Actor) {
		a.Execute(Action{Work: 20, Res: bw, ResPerUnit: 1})
		ta = a.Now()
	})
	k.Spawn("B", func(a *Actor) {
		a.Execute(Action{Delay: 1, Work: 5, Res: bw, ResPerUnit: 1})
		tb = a.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, tb, 2, "B finish")
	near(t, ta, 2.5, "A finish")
}

func TestResPerUnitScalesConsumption(t *testing.T) {
	// Work 5 units at 4 resource-units per work unit on capacity 10/s:
	// alone, rate = 10/4 = 2.5 work/s → 2 s.
	k := NewKernel()
	bw := k.NewResource("bw", 10)
	var end float64
	k.Spawn("w", func(a *Actor) {
		a.Execute(Action{Work: 5, Res: bw, ResPerUnit: 4})
		end = a.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, end, 2, "scaled consumption")
}

func TestCondFIFOOrder(t *testing.T) {
	k := NewKernel()
	c := k.NewCond("q")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("waiter", func(a *Actor) {
			c.Wait(a)
			order = append(order, i)
		})
	}
	k.Spawn("signaler", func(a *Actor) {
		a.Sleep(1)
		c.Signal()
		c.Signal()
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order = %v, want [0 1 2]", order)
	}
}

func TestCondBroadcast(t *testing.T) {
	k := NewKernel()
	c := k.NewCond("gate")
	woken := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(a *Actor) {
			c.Wait(a)
			woken++
		})
	}
	k.Spawn("b", func(a *Actor) {
		a.Sleep(0.5)
		if n := c.Broadcast(); n != 5 {
			t.Errorf("Broadcast woke %d, want 5", n)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	c := k.NewCond("never")
	k.Spawn("stuck", func(a *Actor) {
		c.Wait(a)
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("unhelpful deadlock error: %v", err)
	}
}

func TestPostDetachedAction(t *testing.T) {
	k := NewKernel()
	c := k.NewCond("done")
	var fired, recv float64
	k.Spawn("receiver", func(a *Actor) {
		for fired == 0 {
			c.Wait(a)
		}
		recv = a.Now()
	})
	k.Spawn("poster", func(a *Actor) {
		a.Kernel().Post(Action{Delay: 2}, func() {
			fired = a.Kernel().Now()
			c.Broadcast()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, fired, 2, "post fired")
	near(t, recv, 2, "receiver woke")
}

func TestSpawnFromActorContext(t *testing.T) {
	k := NewKernel()
	var childEnd float64
	k.Spawn("parent", func(a *Actor) {
		a.Sleep(1)
		a.Kernel().Spawn("child", func(c *Actor) {
			c.Sleep(2)
			childEnd = c.Now()
		})
		a.Sleep(0.5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, childEnd, 3, "child started at parent time")
}

func TestSetCapacityTakesEffect(t *testing.T) {
	// Worker has 20 units on 10/s.  At t=1 a controller halves capacity:
	// worker did 10 units, 10 left at 5/s → finishes t=3.
	k := NewKernel()
	bw := k.NewResource("bw", 10)
	var end float64
	k.Spawn("worker", func(a *Actor) {
		a.Execute(Action{Work: 20, Res: bw, ResPerUnit: 1})
		end = a.Now()
	})
	k.Spawn("controller", func(a *Actor) {
		a.Sleep(1)
		bw.SetCapacity(5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, end, 3, "capacity change honored")
}

func TestManyActorsSharingDeterministicTotal(t *testing.T) {
	const n = 64
	k := NewKernel()
	bw := k.NewResource("bw", 100)
	ends := make([]float64, n)
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("s", func(a *Actor) {
			a.Execute(Action{Work: 100, Res: bw, ResPerUnit: 1})
			ends[i] = a.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// All identical streams finish together at n*100/100 = 64 s.
	for i, e := range ends {
		near(t, e, 64, "stream finish "+string(rune('0'+i%10)))
	}
}

func TestActorIdentity(t *testing.T) {
	k := NewKernel()
	k.Spawn("alpha", func(a *Actor) {
		if a.ID() != 0 || a.Name() != "alpha" {
			t.Errorf("actor identity: id=%d name=%q", a.ID(), a.Name())
		}
	})
	k.Spawn("beta", func(a *Actor) {
		if a.ID() != 1 || a.Name() != "beta" {
			t.Errorf("actor identity: id=%d name=%q", a.ID(), a.Name())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidActionsPanic(t *testing.T) {
	cases := []struct {
		name string
		act  Action
	}{
		{"negative delay", Action{Delay: -1}},
		{"negative work", Action{Work: -1, RateCap: 1}},
		{"nan work", Action{Work: math.NaN(), RateCap: 1}},
		{"work without rate or resource", Action{Work: 1}},
		{"resource without per-unit", Action{Work: 1, Res: &Resource{name: "x", capacity: 1}}},
		{"nan per-unit", Action{Work: 1, Res: &Resource{name: "x", capacity: 1}, ResPerUnit: math.NaN()}},
		{"infinite per-unit", Action{Work: 1, Res: &Resource{name: "x", capacity: 1}, ResPerUnit: math.Inf(1)}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			k.Spawn("bad", func(a *Actor) { a.Execute(tc.act) })
			err := k.Run()
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("expected actor panic surfaced as error, got %v", err)
			}
		})
	}
}

// TestNegativeCapacityPanics: both entry points reject every capacity
// that is not positive and finite.  A NaN capacity used to be accepted
// and the run never finished; +Inf turned the water-fill's remainder
// into NaN.
func TestNegativeCapacityPanics(t *testing.T) {
	entries := []struct {
		name string
		set  func(c float64)
	}{
		{"NewResource", func(c float64) { NewKernel().NewResource("bad", c) }},
		{"SetCapacity", func(c float64) { NewKernel().NewResource("bw", 1).SetCapacity(c) }},
	}
	for _, c := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		for _, e := range entries {
			t.Run(fmt.Sprintf("%s/%g", e.name, c), func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(%g) did not panic", e.name, c)
					}
				}()
				e.set(c)
			})
		}
	}
}
