package vtime

import (
	"fmt"
	"math"
)

// workEpsilon is the absolute amount of remaining work below which an
// action is considered complete.  Work quantities in this codebase are
// normalised such that one unit is roughly one second at full speed, so
// 1e-12 is far below any meaningful quantum.
const workEpsilon = 1e-12

// Action describes one fluid work request issued by an actor.  The zero
// value is an empty action that completes immediately.
type Action struct {
	// Delay is a latency phase in virtual seconds.  It always progresses
	// at rate one and is consumed before the work phase starts.  Use it
	// for network latencies and fixed overheads.
	Delay float64

	// Work is the size of the work phase in abstract units.
	Work float64

	// RateCap bounds the progress rate of the work phase in units per
	// second.  Zero means unbounded (useful for pure transfers that are
	// only limited by a shared resource).
	RateCap float64

	// Res, if non-nil, is the shared resource the work phase draws on.
	// ResPerUnit is the amount of resource consumed per work unit; the
	// action's progress rate r consumes r*ResPerUnit of the resource's
	// capacity.  If Res is nil the action runs at RateCap.
	Res        *Resource
	ResPerUnit float64

	// internal state
	seq        uint64
	actor      *Actor
	phase      actionPhase
	rate       float64 // current work-phase rate, units/s
	need       float64 // resource allocation at RateCap, set by attach
	settled    float64 // virtual time of last progress settlement
	finishAt   float64 // predicted completion of current phase
	heapIndex  int
	resIndex   int     // position in Res.members while attached
	remaining  float64 // remaining work units
	delayLeft  float64
	onComplete func() // optional completion callback (used by detached actions)
	posted     bool   // shell owned by the kernel's Post freelist
}

type actionPhase int

const (
	phaseDelay actionPhase = iota
	phaseWork
	phaseDone
)

func (a *Action) validate() {
	if a.Delay < 0 || math.IsNaN(a.Delay) || math.IsInf(a.Delay, 0) {
		panic(fmt.Sprintf("vtime: invalid action delay %g", a.Delay))
	}
	if a.Work < 0 || math.IsNaN(a.Work) || math.IsInf(a.Work, 0) {
		panic(fmt.Sprintf("vtime: invalid action work %g", a.Work))
	}
	if a.RateCap < 0 || math.IsNaN(a.RateCap) {
		panic(fmt.Sprintf("vtime: invalid action rate cap %g", a.RateCap))
	}
	if a.Res != nil && (a.ResPerUnit <= 0 || math.IsNaN(a.ResPerUnit) || math.IsInf(a.ResPerUnit, 0)) {
		panic(fmt.Sprintf("vtime: action with resource must set a positive, finite ResPerUnit, got %g", a.ResPerUnit))
	}
	if a.Res == nil && a.Work > 0 && a.RateCap == 0 {
		panic("vtime: resourceless action with work must set RateCap")
	}
}
