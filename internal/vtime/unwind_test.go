package vtime

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// awaitGoroutines waits until runtime.NumGoroutine is back at base.  An
// unwound actor acknowledges its exit just before its goroutine returns,
// so the count may lag Run's return by a scheduling quantum; the wait
// yields the processor a bounded number of times rather than reading
// the host clock.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 10_000_000 {
			t.Fatalf("%d goroutines remain after the runs, baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// A run that ends with a deadlock or an actor panic must not leave its
// parked actors behind, whether they wait on a Cond or on a pending
// action: each would pin the kernel and everything its actors reference
// for the life of the process.
func TestFailedRunsReleaseActors(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		k := NewKernel()
		never := k.NewCond("never")
		for j := 0; j < 8; j++ {
			k.Spawn("stuck", func(a *Actor) {
				a.Sleep(float64(a.ID()))
				never.Wait(a)
			})
		}
		var de *DeadlockError
		if err := k.Run(); !errors.As(err, &de) {
			t.Fatalf("want *DeadlockError, got %v", err)
		}
		if de.Blocked != 8 || strings.Count(de.WaitGraph, "waiting on never") != 8 {
			t.Fatalf("deadlock outcome not fixed before unwinding:\n%v", de)
		}
	}
	for i := 0; i < 10; i++ {
		k := NewKernel()
		for j := 0; j < 7; j++ {
			k.Spawn("spinner", func(a *Actor) {
				for {
					a.Sleep(1e-3)
				}
			})
		}
		k.Spawn("bad", func(a *Actor) {
			a.Sleep(0.05)
			panic("boom")
		})
		if err := k.Run(); err == nil || !strings.Contains(err.Error(), `actor 7 "bad" panicked: boom`) {
			t.Fatalf("want the actor panic as the run's error, got %v", err)
		}
	}
	for i := 0; i < 10; i++ {
		k := NewKernel()
		gate := k.NewCond("gate")
		for j := 0; j < 7; j++ {
			k.Spawn("waiter", func(a *Actor) { gate.Wait(a) })
		}
		k.Spawn("bad", func(a *Actor) {
			a.Sleep(1)
			panic("boom")
		})
		if err := k.Run(); err == nil || !strings.Contains(err.Error(), `actor 7 "bad" panicked: boom`) {
			t.Fatalf("want the actor panic as the run's error, got %v", err)
		}
	}
	awaitGoroutines(t, base)
}

// Unwinding runs each unfinished actor's deferred code, one actor at a
// time in id order; a blocking call made while unwinding unwinds again
// instead of scheduling, and an actor that never started exits without
// running its body.
func TestUnwindRunsDeferredCodeInIDOrder(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	never := k.NewCond("never")
	var order []int
	started := 0
	for j := 0; j < 4; j++ {
		k.Spawn("stuck", func(a *Actor) {
			started++
			defer func() { order = append(order, a.ID()) }()
			defer a.Sleep(1)
			never.Wait(a)
		})
	}
	k.Spawn("bad", func(a *Actor) { panic("boom") })
	k.Spawn("late", func(a *Actor) { started++ })
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "panicked: boom") {
		t.Fatalf("want the actor panic as the run's error, got %v", err)
	}
	if started != 4 {
		t.Fatalf("%d actor bodies ran, want 4 (the late actor never started)", started)
	}
	if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
		t.Fatalf("deferred code ran for actors %v, want [0 1 2 3]", order)
	}
	if k.Now() != 0 {
		t.Fatalf("unwinding advanced virtual time to %g", k.Now())
	}
	awaitGoroutines(t, base)
}

// A panic raised while the scheduler runs — here a Post callback — is
// not an actor's panic: it escapes Run on the caller's goroutine with
// its original value, as the scheduler's own panics always have, and
// the kernel's actors are released first.
func TestPostCallbackPanicEscapesRun(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		waiters int
		start   func(k *Kernel)
	}{
		{"before any actor runs", 0, func(k *Kernel) {
			k.Post(Action{Delay: 1}, func() { panic(boom) })
		}},
		{"at t=0", 3, func(k *Kernel) {
			bw := k.NewResource("bw", 1)
			k.Spawn("poster", func(a *Actor) {
				k.Post(Action{Work: 0, Res: bw, ResPerUnit: 1}, func() { panic(boom) })
				a.Sleep(1)
			})
		}},
		{"at a later instant", 3, func(k *Kernel) {
			k.Spawn("poster", func(a *Actor) {
				a.Sleep(1)
				k.Post(Action{Delay: 0.5}, func() { panic(boom) })
				a.Sleep(1)
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			gate := k.NewCond("gate")
			for j := 0; j < tc.waiters; j++ {
				k.Spawn("waiter", func(a *Actor) { gate.Wait(a) })
			}
			tc.start(k)
			got := func() (r any) {
				defer func() { r = recover() }()
				if err := k.Run(); err != nil {
					t.Errorf("Run returned %v instead of panicking", err)
				}
				return nil
			}()
			if got != boom {
				t.Fatalf("Run panicked with %v, want the callback's own value", got)
			}
			awaitGoroutines(t, base)
		})
	}
}
