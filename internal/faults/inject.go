package faults

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// Injector is a Plan bound to one run.  It implements
// machine.FaultInjector for the compute and counter faults and schedules
// the bandwidth-collapse windows on the kernel.  The applied log is
// shared across cores, so appends take a mutex and Applied returns a
// totally-ordered copy that does not depend on append order.
type Injector struct {
	plan Plan

	oneoffs  map[machine.CoreID][]*oneoffState
	slowdown map[machine.CoreID][]window // straggler windows, factor > 1
	glitch   map[machine.CoreID][]window // counter over-count windows

	// applied is the log of fault events that actually took effect.  The
	// fire conditions depend only on the armed plan and virtual time, so
	// two identical runs apply identical fault sets.  Reading the log is
	// observe-only: nothing in the injection path consults it.
	mu      sync.Mutex
	applied []AppliedFault

	// metrics and timeline are observe-only hooks (see SetMetrics and
	// SetTimeline); the scheduled fault closures read them at fire time,
	// so they may be attached any time between Arm and Kernel.Run.
	metrics  Metrics
	timeline *obs.Timeline
}

// AppliedFault is one fault event the injector actually applied to the
// simulation, as opposed to one the plan merely declared.  The log lets
// analyses correlate injected and observed delay without re-deriving fire
// times from the plan (which would have to reproduce jitter, clamping and
// the first-quantum-at-or-after-At rule).
type AppliedFault struct {
	Kind Kind `json:"kind"`
	// Rank is the victim world rank; -1 for capacity faults, which target
	// a shared resource rather than a rank.
	Rank int `json:"rank"`
	// Core is the victim core id; -1 for capacity faults.
	Core int `json:"core"`
	// Resource names the collapsed resource for capacity faults ("" for
	// rank faults).
	Resource string `json:"resource,omitempty"`
	// At is the virtual time, in seconds, the event took effect.
	At float64 `json:"at"`
	// Magnitude is the kind-specific strength: the delay in seconds
	// (oneoff), the slowdown factor (straggler), the capacity fraction
	// (collapse; 1 for the paired recovery), or the over-count fraction
	// (ctrglitch).
	Magnitude float64 `json:"magnitude"`
}

// Applied returns the applied-fault log sorted by (At, Kind, Resource,
// Rank, Core, Magnitude) — a total order, so the result is stable even if
// several events share one instant.  Safe on a nil Injector (an empty
// plan arms nothing).
func (in *Injector) Applied() []AppliedFault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	out := append([]AppliedFault(nil), in.applied...)
	in.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		if x.Resource != y.Resource {
			return x.Resource < y.Resource
		}
		if x.Rank != y.Rank {
			return x.Rank < y.Rank
		}
		if x.Core != y.Core {
			return x.Core < y.Core
		}
		return x.Magnitude < y.Magnitude
	})
	return out
}

// record appends one applied-fault event.
func (in *Injector) record(e AppliedFault) {
	in.mu.Lock()
	in.applied = append(in.applied, e)
	in.mu.Unlock()
}

type oneoffState struct {
	rank  int // world rank the delay lands on, for the timeline label
	at    float64
	delay float64
	fired bool
}

type window struct {
	rank     int // victim world rank, for the applied log
	from, to float64
	factor   float64
	applied  bool // first activation already logged
}

func (w window) active(now float64) bool { return now >= w.from && now < w.to }

const foreverT = 1e308 // effectively +inf in virtual seconds

// Arm validates the plan against the machine and placement, installs the
// compute/counter injector on the machine, and schedules the bandwidth
// collapse windows on the kernel.  Call it after building the machine and
// placement and before Kernel.Run.  An empty plan arms nothing and
// returns a nil Injector.  A plan that fails validation — non-finite
// numbers, inverted or overlapping capacity windows, fractions outside
// (0,1], targets outside the job — is rejected with a *PlanError naming
// the offending entry, and nothing is armed.
func Arm(k *vtime.Kernel, m *machine.Machine, place machine.Placement, p Plan) (*Injector, error) {
	if p.Empty() {
		return nil, nil
	}
	if err := p.Validate(place.Ranks, m.Cfg.Nodes, m.Cfg.TotalDomains()); err != nil {
		return nil, err
	}
	inj := &Injector{
		plan:     p,
		oneoffs:  make(map[machine.CoreID][]*oneoffState),
		slowdown: make(map[machine.CoreID][]window),
		glitch:   make(map[machine.CoreID][]window),
	}
	rankCores := func(r int) []machine.CoreID {
		cores := make([]machine.CoreID, place.ThreadsPerRank)
		for t := range cores {
			cores[t] = place.Core(r, t)
		}
		return cores
	}
	for i, f := range p.Faults {
		at := p.startTime(i)
		to := foreverT
		if f.Duration > 0 {
			to = at + f.Duration
		}
		switch f.Kind {
		case OneOffDelay:
			// The delay lands on the rank's master core only: the Afzal
			// experiment stalls one process, and worker threads then
			// inherit the delay through fork/join.
			c := place.Core(f.Rank, 0)
			inj.oneoffs[c] = append(inj.oneoffs[c], &oneoffState{rank: f.Rank, at: at, delay: f.Delay})
		case Straggler:
			for _, c := range rankCores(f.Rank) {
				inj.slowdown[c] = append(inj.slowdown[c], window{rank: f.Rank, from: at, to: to, factor: f.Factor})
			}
		case CtrGlitch:
			for _, c := range rankCores(f.Rank) {
				inj.glitch[c] = append(inj.glitch[c], window{rank: f.Rank, from: at, to: to, factor: f.Factor})
			}
		case LinkDegrade:
			inj.armCapacityWindow(k, m.NIC(f.Node), f.Kind, at, at+f.Duration, f.Factor)
		case MemDegrade:
			inj.armCapacityWindow(k, m.Domain(f.Domain), f.Kind, at, at+f.Duration, f.Factor)
		default:
			return nil, fmt.Errorf("faults: unknown fault kind %q", f.Kind)
		}
	}
	m.SetFaults(inj)
	return inj, nil
}

// armCapacityWindow schedules a transient capacity collapse on a shared
// resource: at `from` the capacity drops to fraction*nominal, at `to` it
// recovers.  The restore uses the capacity recorded at arm time, which is
// exact because Validate rejects overlapping windows on one resource.
// The closures read the injector's observability hooks at fire time, so
// SetMetrics/SetTimeline may run after Arm.
func (in *Injector) armCapacityWindow(k *vtime.Kernel, res *vtime.Resource, kind Kind, from, to, fraction float64) {
	nominal := res.Capacity()
	k.Post(vtime.Action{Delay: from}, func() {
		res.SetCapacity(nominal * fraction)
		in.record(AppliedFault{Kind: kind, Rank: -1, Core: -1, Resource: res.Name(), At: k.Now(), Magnitude: fraction})
		in.metrics.Injections.Inc()
		in.timeline.AddMark(k.Now(), "capacity collapse "+res.Name(),
			fmt.Sprintf("to %gx nominal until t=%g", fraction, to))
	})
	k.Post(vtime.Action{Delay: to}, func() {
		res.SetCapacity(nominal)
		in.record(AppliedFault{Kind: kind, Rank: -1, Core: -1, Resource: res.Name(), At: k.Now(), Magnitude: 1})
		in.metrics.Injections.Inc()
		in.timeline.AddMark(k.Now(), "capacity recovery "+res.Name(),
			fmt.Sprintf("back to nominal %g", nominal))
	})
}

// Plan returns the armed plan.
func (in *Injector) Plan() Plan { return in.plan }

// ComputeFault implements machine.FaultInjector.
func (in *Injector) ComputeFault(c machine.CoreID, now, base float64) (delay, slow float64) {
	slow = 1
	ws := in.slowdown[c]
	for wi := range ws {
		w := &ws[wi]
		if w.active(now) {
			slow *= w.factor
			if !w.applied {
				w.applied = true
				in.record(AppliedFault{Kind: Straggler, Rank: w.rank, Core: int(c), At: now, Magnitude: w.factor})
			}
		}
	}
	for _, o := range in.oneoffs[c] {
		if !o.fired && now >= o.at {
			o.fired = true
			delay += o.delay
			in.record(AppliedFault{Kind: OneOffDelay, Rank: o.rank, Core: int(c), At: now, Magnitude: o.delay})
			in.metrics.Injections.Inc()
			in.timeline.AddMark(now, fmt.Sprintf("oneoff rank %d", o.rank),
				fmt.Sprintf("delay %gs armed at t=%g", o.delay, o.at))
		}
	}
	return delay, slow
}

// CounterGlitch implements machine.FaultInjector.
func (in *Injector) CounterGlitch(c machine.CoreID, now, instr float64) float64 {
	var extra float64
	ws := in.glitch[c]
	for wi := range ws {
		w := &ws[wi]
		if w.active(now) {
			extra += instr * w.factor
			if !w.applied {
				w.applied = true
				in.record(AppliedFault{Kind: CtrGlitch, Rank: w.rank, Core: int(c), At: now, Magnitude: w.factor})
			}
		}
	}
	return extra
}
