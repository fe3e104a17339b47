package vtime

import (
	"fmt"
	"strings"
)

// Kernel is the central scheduler of a virtual-time simulation.  Create one
// with NewKernel, register resources and actors, then call Run.
type Kernel struct {
	now       float64
	seq       uint64
	actors    []*Actor
	resources []*Resource
	heap      finishHeap
	runnable  []*Actor
	runHead   int // index of the next runnable actor (avoids reslicing)
	alive     int
	running   bool
	current   *Actor // actor currently holding the execution slot
	steps     uint64
	completed uint64

	// The run's outcome, fixed by the actor that panicked or by the
	// goroutine whose handoff found the run over: the error Run
	// returns, or the value of a panic raised while the scheduler ran,
	// which Run re-raises.  over wakes Run once the outcome is fixed and
	// once per actor that exits while unwinding.
	failure   error
	panicked  any
	over      chan struct{}
	unwinding bool

	// dirty is the set of resources whose membership or capacity changed
	// since the last flush.  Each is settled, re-shared and re-keyed once
	// per scheduling instant by flushDirty instead of once per change —
	// the batched fluid-model resettling that keeps an n-way contention
	// burst O(n) per re-share instead of O(n²).
	dirty []*Resource

	// freeActions recycles the heap-allocated Action shells of completed
	// Post submissions, so detached actions (fault injectors, timers)
	// do not allocate once the simulation is warm.
	freeActions []*Action

	// metrics holds observe-only counters (zero value: all no-op).  The
	// kernel only ever writes them; see Metrics.
	metrics Metrics

	// capObserver, when set, is told about every resource registration
	// and capacity change.  Observe-only; see SetCapacityObserver.
	capObserver func(now float64, resource string, capacity float64)
}

// DeadlockError reports a simulation in which live actors remain but no
// action can ever complete.
type DeadlockError struct {
	Now       float64
	Blocked   int
	WaitGraph string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("vtime: deadlock at t=%g with %d blocked actors:\n%s",
		e.Now, e.Blocked, e.WaitGraph)
}

// NewKernel creates an empty simulation kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{over: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Steps returns the number of scheduling steps executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// Completed returns the number of actions completed so far.
func (k *Kernel) Completed() uint64 { return k.completed }

// nextSeq hands out strictly increasing sequence numbers used as
// deterministic tiebreakers.
func (k *Kernel) nextSeq() uint64 {
	k.seq++
	return k.seq
}

// Spawn registers a new actor executing fn.  It may be called before Run or
// from actor context while the simulation is in progress.  The actor starts
// at the current virtual time.
func (k *Kernel) Spawn(name string, fn func(*Actor)) *Actor {
	a := &Actor{
		k:      k,
		id:     len(k.actors),
		name:   name,
		resume: make(chan struct{}),
	}
	k.actors = append(k.actors, a)
	k.alive++
	go func() {
		defer a.exit()
		<-a.resume
		if !k.unwinding {
			fn(a)
			a.state = stateDone
		}
	}()
	k.runnable = append(k.runnable, a)
	return a
}

// Run executes the simulation until every actor has finished.  It returns
// an error describing the blocked actors if the simulation deadlocks.
// Run must be called exactly once, from the goroutine that created the
// kernel, and never from actor context.
//
// Run only starts the run and waits for its outcome: the execution slot
// passes from actor to actor, each running the scheduler as it blocks or
// exits, and the goroutine whose handoff finds the run over wakes Run.
// Before returning, Run unwinds every actor that has not finished, so a
// failed run leaves no goroutine behind.  A panic raised while the
// scheduler ran (a Post callback, a capacity observer, a kernel
// invariant) escapes Run with its original value, after the unwinding.
func (k *Kernel) Run() error {
	if k.running {
		panic("vtime: Kernel.Run called twice")
	}
	k.running = true
	if next := k.handoff(); next != nil {
		next.resume <- struct{}{}
		<-k.over
	}
	k.unwind()
	if k.panicked != nil {
		panic(k.panicked)
	}
	return k.failure
}

// handoff gives up the execution slot and runs the scheduler on the
// calling goroutine.  It returns the next actor to run, already made
// current, or nil once the run's outcome is fixed.  An actor caller
// then passes the slot on with pass.
func (k *Kernel) handoff() (next *Actor) {
	k.current = nil
	if k.failure != nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			k.panicked = r
			next = nil
		}
	}()
	next, k.failure = k.schedule()
	k.current = next
	return next
}

// schedule pops the runnable queue.  When the queue is empty it flushes,
// advances virtual time and fires completions until an actor is
// runnable or the run ends: it then returns a nil actor and the run's
// error, nil when every actor finished.
func (k *Kernel) schedule() (*Actor, error) {
	for {
		// Phase 1: the next runnable actor runs until it blocks.  The
		// queue is drained by index so the backing array is reused across
		// instants instead of being resliced away.
		for k.runHead < len(k.runnable) {
			a := k.runnable[k.runHead]
			k.runnable[k.runHead] = nil
			k.runHead++
			if a.done {
				continue
			}
			return a, nil
		}
		k.runnable = k.runnable[:0]
		k.runHead = 0
		// Resource changes made by the actors (attaches, capacity moves)
		// are settled once here, so the heap's finish predictions are
		// current before the next completion time is chosen.
		k.flushDirty()
		// Phase 2: advance virtual time to the next completion.
		if k.heap.Len() == 0 {
			if k.alive == 0 {
				return nil, nil
			}
			return nil, k.deadlockError()
		}
		k.steps++
		k.metrics.Steps.Inc()
		k.metrics.HeapSize.Set(int64(k.heap.Len()))
		t := k.heap.peek().finishAt
		if t < k.now {
			t = k.now // defensive: never move backwards
		}
		k.now = t
		// Fire everything due at t, then flush the membership changes the
		// completions made.  A flush at instant t can only key events
		// strictly after t — except a member that already reached zero
		// remaining work, which it keys at exactly t — so one more sweep
		// of the due events after each flush keeps the instant complete.
		for {
			for k.heap.Len() > 0 && k.heap.peek().finishAt <= t {
				act := k.heap.pop()
				act.heapIndex = -1
				k.fire(act)
			}
			if !k.flushDirty() {
				break
			}
		}
	}
}

// pass hands the execution slot to next, or wakes Run when the run is
// over (next == nil).
func (k *Kernel) pass(next *Actor) {
	if next != nil {
		next.resume <- struct{}{}
	} else {
		k.over <- struct{}{}
	}
}

// unwind releases every actor that has not finished, one at a time in
// id order (including any that deferred actor code spawns), and waits
// for each goroutine to exit before releasing the next, so the actors'
// deferred code never runs concurrently.  A parked
// actor panics with unwound{} out of its blocking call; one that never
// started exits without running its body.
func (k *Kernel) unwind() {
	k.unwinding = true
	for i := 0; i < len(k.actors); i++ {
		if a := k.actors[i]; !a.done {
			a.resume <- struct{}{}
			<-k.over
		}
	}
}

// fire processes an action whose current phase ended at the current time.
func (k *Kernel) fire(a *Action) {
	switch a.phase {
	case phaseDelay:
		a.delayLeft = 0
		k.startWork(a)
	case phaseWork:
		if a.Res != nil {
			a.settle(k.now)
			a.Res.detach(a)
			k.markDirty(a.Res)
		}
		k.complete(a)
	default:
		panic("vtime: fire on completed action")
	}
}

// submit schedules an action for execution starting at the current time.
func (k *Kernel) submit(a *Action) {
	a.validate()
	a.seq = k.nextSeq()
	a.heapIndex = -1
	a.resIndex = -1
	a.remaining = a.Work
	a.delayLeft = a.Delay
	a.settled = k.now
	if a.delayLeft > 0 {
		a.phase = phaseDelay
		a.finishAt = k.now + a.delayLeft
		k.heap.push(a)
		return
	}
	k.startWork(a)
}

// startWork transitions an action into its work phase.
func (k *Kernel) startWork(a *Action) {
	a.phase = phaseWork
	a.settled = k.now
	if a.Res == nil {
		if a.remaining <= workEpsilon {
			k.complete(a)
			return
		}
		a.rate = a.RateCap
		a.finishAt = k.now + a.remaining/a.rate
		k.heap.push(a)
		return
	}
	a.Res.attach(a)
	k.markDirty(a.Res)
	if a.remaining <= workEpsilon {
		// Even zero work must visit the heap so that completion order
		// stays deterministic relative to peers completing now.  Its
		// finish time does not depend on the share it would receive, so
		// it is keyed immediately — a deferred key could fire after a
		// later-submitted peer that is already in the heap at this
		// instant, inverting the seq order.
		a.finishAt = k.now
		k.heap.push(a)
	}
	// Positive work cannot complete at the current instant, so its rate
	// and finish prediction wait for the next dirty-set flush.
}

// markDirty queues a resource for the next flushDirty.  Membership and
// capacity changes within one scheduling instant are coalesced: only the
// state at the end of the instant determines the rates going forward, and
// every intermediate configuration holds for zero virtual time.
func (k *Kernel) markDirty(r *Resource) {
	if !r.dirty {
		r.dirty = true
		k.dirty = append(k.dirty, r)
	}
}

// flushDirty resettles every dirty resource once at the current instant
// and reports whether there was anything to do.  Exactness: each member's
// rate field still holds the rate that was in force since its last
// settlement, so the settle here accounts progress identically to the
// settle an eager per-change resettle would have performed, and the
// single re-share sees the same final member set and capacity the last of
// the eager re-shares would have seen.
func (k *Kernel) flushDirty() bool {
	if len(k.dirty) == 0 {
		return false
	}
	k.metrics.DirtyFlushes.Inc()
	k.metrics.Resettles.Add(uint64(len(k.dirty)))
	for i, r := range k.dirty {
		r.dirty = false
		k.dirty[i] = nil
		k.resettle(r)
	}
	k.dirty = k.dirty[:0]
	return true
}

// resettle settles, re-shares and re-keys every member of a resource in
// one pass after its membership or capacity changed; flushDirty calls it
// once per dirty resource per instant.  The share is an equal-allocation
// water-fill in the members' need order: each member gets an equal part
// of the capacity left, or its need if that is smaller.  Settling reads
// only the member's own old rate, and the heap order (finishAt, seq) is
// strict, so visiting members one at a time changes no bit.
func (k *Kernel) resettle(r *Resource) {
	left := r.capacity
	n := len(r.members)
	for i, m := range r.members {
		m.settle(k.now)
		alloc := left / float64(n-i)
		if m.need < alloc {
			alloc = m.need
		}
		left -= alloc
		m.rate = alloc / m.ResPerUnit
		if m.remaining <= workEpsilon {
			m.finishAt = k.now
		} else {
			m.finishAt = k.now + m.remaining/m.rate
		}
		if m.heapIndex >= 0 {
			k.heap.fix(m)
		} else {
			k.heap.push(m)
		}
	}
}

// settle accounts work-phase progress up to time t.
func (a *Action) settle(t float64) {
	if a.phase != phaseWork {
		return
	}
	dt := t - a.settled
	if dt > 0 && a.rate > 0 {
		a.remaining -= dt * a.rate
		if a.remaining < 0 {
			a.remaining = 0
		}
	}
	a.settled = t
}

// complete finalises an action and wakes its actor or runs its callback.
func (k *Kernel) complete(a *Action) {
	a.phase = phaseDone
	k.completed++
	k.metrics.Completions.Inc()
	if a.onComplete != nil {
		a.onComplete()
		if a.posted {
			// The shell of a detached action is dead once its callback
			// returns: nothing else holds a reference, so it goes back
			// to the freelist for the next Post.
			a.onComplete = nil
			k.freeActions = append(k.freeActions, a)
		}
		return
	}
	if a.actor != nil {
		k.ready(a.actor)
	}
}

// ready marks an actor runnable.
func (k *Kernel) ready(a *Actor) {
	if a.done {
		panic("vtime: waking finished actor " + a.name)
	}
	k.runnable = append(k.runnable, a)
}

// Post schedules a detached action that is not tied to a blocked actor.
// When the action completes, fn runs in kernel context; it must not block
// but may signal conditions to wake actors.  Post may be called from actor
// context or from a completion callback.
func (k *Kernel) Post(a Action, fn func()) {
	var act *Action
	if n := len(k.freeActions); n > 0 {
		act = k.freeActions[n-1]
		k.freeActions[n-1] = nil
		k.freeActions = k.freeActions[:n-1]
	} else {
		act = new(Action)
	}
	*act = a
	act.onComplete = fn
	act.posted = true
	k.metrics.Posts.Inc()
	k.submit(act)
}

func (k *Kernel) deadlockError() error {
	return &DeadlockError{Now: k.now, Blocked: k.alive, WaitGraph: k.WaitGraph()}
}

// WaitGraph renders a diagnostic snapshot of every live actor: what it is
// doing, what condition it is blocked on and since when, plus an inverted
// index from each condition to its waiters.  It is the payload of
// deadlock errors and may be called at any time for debugging.
func (k *Kernel) WaitGraph() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  wait-graph (%d live actors, %d pending actions):", k.alive, k.heap.Len())
	type edge struct {
		cond    *Cond
		waiters []string
	}
	var edges []edge
	seen := make(map[*Cond]int)
	for _, a := range k.actors {
		if a.done {
			continue
		}
		fmt.Fprintf(&b, "\n    actor %d %q: %s", a.id, a.name, a.statusString())
		if c := a.waitingOn; c != nil {
			fmt.Fprintf(&b, " (blocked since t=%g)", a.blockedAt)
			i, ok := seen[c]
			if !ok {
				i = len(edges)
				seen[c] = i
				edges = append(edges, edge{cond: c})
			}
			edges[i].waiters = append(edges[i].waiters, a.name)
		}
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "\n    cond %q <- waiters %v", e.cond.name, e.waiters)
	}
	return b.String()
}
