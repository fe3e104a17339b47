// Package vtime implements a deterministic virtual-time discrete-event
// simulation kernel with a fluid resource model.
//
// The kernel hosts a set of actors, each a goroutine representing one
// simulated thread of execution (for example, one OpenMP thread of one MPI
// rank).  Although actors are goroutines, exactly one goroutine at a time
// holds the execution slot, the right to touch kernel state: an actor runs
// until it calls a blocking primitive (Execute, Sleep, Cond.Wait, ...) or
// returns, at which point it runs the scheduler itself and passes the slot
// straight to the next runnable actor with one channel send.  Kernel.Run
// only starts the run and waits for its outcome.  All scheduling queues are
// strictly ordered, so a simulation is bit-for-bit reproducible regardless
// of GOMAXPROCS.
//
// Work is modelled as fluid actions.  An Action has an optional latency
// phase (Delay seconds that always progress at rate one) followed by a work
// phase of Work abstract units.  The work phase progresses at a rate that is
// bounded by the action's RateCap (for example, the speed of the core the
// thread is pinned to) and, if the action draws on a shared Resource (a NUMA
// domain's memory bandwidth, a network link), by the action's fair share of
// that resource.  Shares are computed by equal-allocation water-filling:
// every action on a resource receives the same allocation unless its rate
// cap makes it need less, in which case the surplus is redistributed.  This
// reproduces the first-order behaviour of memory controllers and network
// switches: n concurrent memory-bound streams on one NUMA domain each
// observe roughly 1/n of its bandwidth.
//
// The kernel is the substrate on which the simmpi and simomp packages build
// MPI-like and OpenMP-like runtimes, giving the measurement system
// (internal/measure) a perfectly controllable "physical" clock and a
// reproducible noise environment.
package vtime
