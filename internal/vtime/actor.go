package vtime

import (
	"fmt"
	"runtime/debug"
)

// actorState tracks what an actor is doing as a plain enum.  The wait-graph
// diagnostic renders it to a string on demand; keeping the hot-path
// assignments (Execute, yield, Cond.Wait) free of fmt/concat allocations.
type actorState uint8

const (
	stateSpawned actorState = iota
	stateRunning
	stateExecuting
	stateWaiting
	stateDone
	statePanicked
)

// Actor is one simulated thread of execution.  Actor methods must only be
// called from the actor's own goroutine (that is, from within the function
// passed to Spawn), with the exception of the read-only accessors.
type Actor struct {
	k        *Kernel
	id       int
	name     string
	resume   chan struct{}
	done     bool
	state    actorState
	panicMsg string // set only on the statePanicked path

	// act is the reusable submission slot for Execute.  An actor runs at
	// most one action at a time and the kernel drops every reference to
	// it before the actor resumes, so routing submissions through this
	// field keeps the per-call Action off the heap entirely.
	act Action

	// waitingOn and blockedAt feed the kernel's wait-graph diagnostic:
	// the condition the actor is currently blocked on (nil when
	// runnable or executing an action) and the virtual time it blocked.
	waitingOn *Cond
	blockedAt float64
}

// ID returns the kernel-wide actor index, assigned in spawn order.
func (a *Actor) ID() int { return a.id }

// Name returns the diagnostic name given at spawn time.
func (a *Actor) Name() string { return a.name }

// Kernel returns the kernel this actor belongs to.
func (a *Actor) Kernel() *Kernel { return a.k }

// Now returns the current virtual time.
func (a *Actor) Now() float64 { return a.k.now }

// statusString renders the actor's state for the wait-graph.
func (a *Actor) statusString() string {
	switch a.state {
	case stateSpawned:
		return "spawned"
	case stateRunning:
		return "running"
	case stateExecuting:
		return fmt.Sprintf("executing (delay=%g work=%g)", a.act.Delay, a.act.Work)
	case stateWaiting:
		if c := a.waitingOn; c != nil {
			return "waiting on " + c.name
		}
		return "waiting"
	case stateDone:
		return "done"
	case statePanicked:
		return "panicked: " + a.panicMsg
	}
	return fmt.Sprintf("state(%d)", uint8(a.state))
}

// yield blocks the actor and gives up the execution slot: the actor runs
// the scheduler itself and resumes the next runnable actor directly — one
// goroutine handoff per actor switch, none when the next runnable actor
// is this one.  The actor resumes when the kernel marks it runnable
// again.  Once a failed run is unwinding, a blocking call unwinds the
// actor instead.
func (a *Actor) yield() {
	k := a.k
	if k.unwinding {
		panic(unwound{})
	}
	a.checkContext()
	next := k.handoff()
	if next == a {
		a.state = stateRunning
		return
	}
	k.pass(next)
	<-a.resume
	if k.unwinding {
		panic(unwound{})
	}
	a.state = stateRunning
}

// unwound is the panic value that unwinds a parked actor's stack after
// its run failed, running the actor's deferred code.
type unwound struct{}

// exit is the deferred epilogue of every actor goroutine, on normal
// return or panic.  The finished actor gives up the execution slot as a
// blocking one would, but never parks again.  While a failed run
// unwinds, it only reports that the goroutine is gone: it touches
// neither the failure, the live count nor the slot.
func (a *Actor) exit() {
	r := recover()
	k := a.k
	if k.unwinding {
		k.over <- struct{}{}
		return
	}
	if r != nil {
		if k.failure == nil {
			k.failure = fmt.Errorf("vtime: actor %d %q panicked: %v\n%s",
				a.id, a.name, r, debug.Stack())
		}
		a.panicMsg = fmt.Sprint(r)
		a.state = statePanicked
	}
	a.done = true
	k.alive--
	k.pass(k.handoff())
}

// checkContext panics if a blocking primitive is invoked on this actor
// from a goroutine that does not hold the execution slot for it.  Running
// work "on behalf of" a parked actor from another goroutine corrupts the
// resume handshake, so it must fail fast.
func (a *Actor) checkContext() {
	if a.k.running && a.k.current != a {
		cur := "<kernel>"
		if a.k.current != nil {
			cur = a.k.current.name
		}
		panic(fmt.Sprintf("vtime: blocking call on actor %q from execution context of %q", a.name, cur))
	}
}

// Execute performs the given action and blocks the actor until it
// completes in virtual time.  Zero-cost actions return immediately without
// a scheduling round-trip.
func (a *Actor) Execute(act Action) {
	if act.Delay == 0 && act.Work == 0 {
		return
	}
	act.actor = a
	a.act = act
	a.state = stateExecuting
	a.k.submit(&a.act)
	a.yield()
}

// Sleep advances the actor's virtual time by d seconds without consuming
// any shared resource.
func (a *Actor) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative sleep %g", d))
	}
	a.Execute(Action{Delay: d})
}

// Compute advances the actor by sec seconds of dedicated CPU work (no
// shared resource).
func (a *Actor) Compute(sec float64) {
	if sec < 0 {
		panic(fmt.Sprintf("vtime: negative compute %g", sec))
	}
	a.Execute(Action{Work: sec, RateCap: 1})
}
