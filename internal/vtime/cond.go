package vtime

// Cond is a FIFO condition variable for actors.  Because the kernel runs at
// most one goroutine at a time there are no data races; the usual pattern is
//
//	for !predicate() {
//		cond.Wait(actor)
//	}
//
// Signal and Broadcast may be called from actor context or from a Post
// completion callback.
type Cond struct {
	k       *Kernel
	name    string
	waiters []*Actor
}

// NewCond creates a condition variable with a diagnostic name.
func (k *Kernel) NewCond(name string) *Cond {
	return &Cond{k: k, name: name}
}

// Wait blocks the calling actor until another party signals the condition.
// Wakeups are strictly FIFO.
func (c *Cond) Wait(a *Actor) {
	c.waiters = append(c.waiters, a)
	a.state = stateWaiting
	a.waitingOn = c
	a.blockedAt = c.k.now
	a.yield()
	a.waitingOn = nil
}

// Signal wakes the longest-waiting actor, if any.  It reports whether an
// actor was woken.
func (c *Cond) Signal() bool {
	if len(c.waiters) == 0 {
		return false
	}
	a := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.k.ready(a)
	return true
}

// Broadcast wakes all waiting actors in FIFO order and returns how many
// were woken.
func (c *Cond) Broadcast() int {
	n := len(c.waiters)
	for _, a := range c.waiters {
		c.k.ready(a)
	}
	c.waiters = c.waiters[:0]
	return n
}

// Waiters returns the number of actors currently blocked on the condition.
func (c *Cond) Waiters() int { return len(c.waiters) }
