package vtime

import (
	"fmt"
	"math"
	"slices"
)

// Resource is a shared, capacity-limited facility such as the memory
// bandwidth of a NUMA domain or a network link.  Actions that name a
// Resource compete for its capacity under equal-allocation water-filling.
type Resource struct {
	k        *Kernel
	name     string
	capacity float64 // units per virtual second

	// members are the actions currently in their work phase on this
	// resource, in ascending order of need and, among equal needs, in
	// attach order: the order the water-fill visits them in.  Its
	// floating-point allocations are bitwise sensitive to position, so
	// attach and detach must both keep this order.
	members []*Action

	// dirty marks the resource as queued in the kernel's dirty set for
	// the next coalesced resettle (see Kernel.markDirty).
	dirty bool
}

// NewResource registers a new shared resource with the kernel.  Capacity is
// in resource units per virtual second (for example bytes/s for a memory
// domain) and must be positive and finite.
func (k *Kernel) NewResource(name string, capacity float64) *Resource {
	checkCapacity(name, capacity)
	r := &Resource{k: k, name: name, capacity: capacity}
	k.resources = append(k.resources, r)
	if k.capObserver != nil {
		k.capObserver(k.now, name, capacity)
	}
	return r
}

// Name returns the diagnostic name of the resource.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource capacity in units per virtual second.
func (r *Resource) Capacity() float64 { return r.capacity }

// checkCapacity panics unless c is positive and finite.  A NaN capacity
// never lets a member finish, and an infinite one turns the water-fill's
// remainder into Inf − Inf = NaN for the members after the first.
func checkCapacity(name string, c float64) {
	if !(c > 0) || math.IsInf(c, 1) {
		panic(fmt.Sprintf("vtime: resource %q: capacity must be positive and finite, got %g", name, c))
	}
}

// SetCapacity changes the capacity of the resource from the current
// virtual instant onward.  Call it from actor context or from a Post
// completion callback (for example to model frequency throttling or a
// noisy network link).  Progress up to the current instant is settled at
// the old rates when the kernel flushes its dirty set — once per instant,
// no matter how many membership or capacity changes pile up — and the new
// rates are then shared out of the new capacity in a single pass.
func (r *Resource) SetCapacity(c float64) {
	checkCapacity(r.name, c)
	r.capacity = c
	r.k.markDirty(r)
	if obs := r.k.capObserver; obs != nil {
		obs(r.k.now, r.name, c)
	}
}

// attach fixes a's need, the allocation it could consume at its rate cap
// (unbounded without one), and inserts it after the last member whose
// need is at most its own.  Needs never change, so members stay in order.
func (r *Resource) attach(a *Action) {
	a.need = math.Inf(1)
	if a.RateCap != 0 {
		a.need = a.RateCap * a.ResPerUnit
	}
	i := len(r.members)
	for i > 0 && r.members[i-1].need > a.need {
		i--
	}
	r.members = slices.Insert(r.members, i, a)
	for j := i; j < len(r.members); j++ {
		r.members[j].resIndex = j
	}
}

// detach removes a by its stored member index — no scan — while keeping
// the remaining members in order.
func (r *Resource) detach(a *Action) {
	i := a.resIndex
	if i < 0 || i >= len(r.members) || r.members[i] != a {
		panic("vtime: detach of action not attached to resource " + r.name)
	}
	r.members = slices.Delete(r.members, i, i+1)
	for j := i; j < len(r.members); j++ {
		r.members[j].resIndex = j
	}
	a.resIndex = -1
}
