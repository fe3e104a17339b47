// Package faults is a deterministic fault-injection layer over
// the vtime kernel, the machine model and the simmpi runtime.  Where
// internal/noise models the *steady-state* disturbances of a busy cluster
// (OS detours, jitter, clock drift), faults models *discrete* events:
//
//   - one-off rank delays at a given virtual time — the experiment of
//     Afzal et al. ("Propagation and Decay of Injected One-Off Delays on
//     Clusters"), whose propagation through the job is exactly the
//     wait-state pattern Scalasca measures;
//   - sustained straggler ranks (a degraded core-speed coefficient);
//   - transient NUMA or network-link bandwidth collapse windows;
//   - hardware-counter glitches that corrupt lt_hwctr read-outs without
//     touching timing.
//
// A Plan is declarative and reproducible per config: every fault starts
// at its fixed virtual instant, with no seed and no jitter, so arming
// the same plan twice yields byte-identical simulations.  Faults perturb
// only *physical* execution — durations, bandwidths, counter read-outs —
// never the application's code path, so pure logical clocks (lt_1 …
// lt_stmt) must record bit-identical traces with and without a plan.
// That invariant is the repository's first result beyond the paper and
// is asserted by tests.
package faults

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind names a fault class.
type Kind string

// The supported fault kinds.
const (
	// OneOffDelay stalls a rank's master core once: the first compute
	// quantum starting at or after At is extended by Delay seconds.
	OneOffDelay Kind = "oneoff"
	// Straggler multiplies the CPU time of every quantum on the rank's
	// cores by Factor (> 1) inside [At, At+Duration); Duration 0 means
	// until the job ends.
	Straggler Kind = "straggler"
	// LinkDegrade collapses a node's network-adapter bandwidth to
	// Factor (0..1] of its capacity inside [At, At+Duration).
	LinkDegrade Kind = "linkdown"
	// MemDegrade collapses a NUMA domain's DRAM bandwidth to Factor
	// (0..1] of its capacity inside [At, At+Duration).
	MemDegrade Kind = "membw"
	// CtrGlitch inflates the hardware instruction-counter read-out of
	// quanta on the rank's cores by Factor (relative over-count) inside
	// [At, At+Duration); Duration 0 means until the job ends.
	CtrGlitch Kind = "ctrglitch"
)

// Fault is one injected fault.  Which fields matter depends on Kind; see
// the Kind constants.
type Fault struct {
	Kind Kind
	// Rank targets OneOffDelay, Straggler and CtrGlitch.
	Rank int
	// Node targets LinkDegrade.
	Node int
	// Domain targets MemDegrade (global NUMA domain index).
	Domain int
	// At is the virtual time, in seconds, the fault begins.
	At float64
	// Duration bounds window faults; see the Kind constants for the
	// meaning of zero.
	Duration float64
	// Delay is the injected one-off delay in seconds (OneOffDelay).
	Delay float64
	// Factor is the straggler slowdown (> 1), the capacity fraction of a
	// bandwidth collapse (0..1], or the counter over-count fraction
	// (> 0).
	Factor float64
}

// Plan is a declarative set of faults for one run, each starting at its
// own At.
type Plan struct {
	// Seed is read by nothing: every fault starts at its own At.
	//
	// Deprecated: a plan has no random part; leave Seed zero.
	Seed int64

	Faults []Fault
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Faults) == 0 }

// PlanError is a structured validation failure.  It names the offending
// plan entry by index and value, so a CLI user or study harness can point
// at exactly the fault that was rejected instead of guessing which of a
// semicolon-separated spec misbehaved.  For overlap failures Other is the
// index of the second entry involved; otherwise it is -1.
type PlanError struct {
	Index  int    // position in Plan.Faults
	Other  int    // second entry of a pairwise failure, else -1
	Fault  Fault  // the offending entry
	Reason string // human-readable cause
}

// Error renders the failure with the offending entry spelled out in the
// ParseSpec grammar.
func (e *PlanError) Error() string {
	if e.Other >= 0 {
		return fmt.Sprintf("faults: fault %d (%s): %s (conflicts with fault %d)",
			e.Index, e.Fault.String(), e.Reason, e.Other)
	}
	return fmt.Sprintf("faults: fault %d (%s): %s", e.Index, e.Fault.String(), e.Reason)
}

// badNum reports a value that can never be a meaningful time, duration or
// factor: NaN or an infinity.  Plain range checks let NaN through (every
// comparison on NaN is false), which is how a NaN start time used to arm
// a fault that silently never fires.
func badNum(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Validate checks the plan against a job shape: ranks in the world, nodes
// and NUMA domains in the allocation.  It rejects non-finite times and
// magnitudes, empty or inverted windows, fractions outside (0,1], targets
// outside the job, and overlapping capacity windows on the same resource
// (the injector restores the capacity recorded at collapse time, so two
// overlapping windows would "recover" to the other window's collapsed
// value).  Every failure is a *PlanError naming the offending entry.
func (p Plan) Validate(ranks, nodes, domains int) error {
	for i, f := range p.Faults {
		if reason := f.validate(ranks, nodes, domains); reason != "" {
			return &PlanError{Index: i, Other: -1, Fault: f, Reason: reason}
		}
	}
	return p.validateCapacityWindows()
}

// validate returns the reason one fault is invalid, or "" when it is fine.
func (f Fault) validate(ranks, nodes, domains int) string {
	if badNum(f.At) || f.At < 0 {
		return fmt.Sprintf("start time %g must be finite and non-negative", f.At)
	}
	if badNum(f.Duration) || f.Duration < 0 {
		return fmt.Sprintf("duration %g must be finite and non-negative", f.Duration)
	}
	if badNum(f.Delay) || badNum(f.Factor) {
		return "delay and factor must be finite"
	}
	checkRank := func() string {
		if f.Rank < 0 || f.Rank >= ranks {
			return fmt.Sprintf("rank %d out of range [0,%d)", f.Rank, ranks)
		}
		return ""
	}
	window := func() string {
		if f.Duration == 0 {
			return "window needs a positive duration (from must precede to)"
		}
		if f.Factor <= 0 || f.Factor > 1 {
			return fmt.Sprintf("capacity fraction %g out of (0,1]", f.Factor)
		}
		return ""
	}
	switch f.Kind {
	case OneOffDelay:
		if f.Delay <= 0 {
			return fmt.Sprintf("delay %g must be positive", f.Delay)
		}
		return checkRank()
	case Straggler:
		if f.Factor <= 1 {
			return fmt.Sprintf("factor %g must exceed 1", f.Factor)
		}
		return checkRank()
	case LinkDegrade:
		if f.Node < 0 || f.Node >= nodes {
			return fmt.Sprintf("node %d out of range [0,%d)", f.Node, nodes)
		}
		return window()
	case MemDegrade:
		if f.Domain < 0 || f.Domain >= domains {
			return fmt.Sprintf("domain %d out of range [0,%d)", f.Domain, domains)
		}
		return window()
	case CtrGlitch:
		if f.Factor <= 0 {
			return fmt.Sprintf("over-count fraction %g must be positive", f.Factor)
		}
		return checkRank()
	}
	return fmt.Sprintf("unknown fault kind %q", f.Kind)
}

// validateCapacityWindows rejects two capacity windows of the same kind on
// the same resource whose [At, At+Duration) intervals overlap.
func (p Plan) validateCapacityWindows() error {
	type win struct {
		index    int
		from, to float64
	}
	byResource := make(map[string][]win)
	for i, f := range p.Faults {
		var key string
		switch f.Kind {
		case LinkDegrade:
			key = fmt.Sprintf("nic/%d", f.Node)
		case MemDegrade:
			key = fmt.Sprintf("numa/%d", f.Domain)
		default:
			continue
		}
		byResource[key] = append(byResource[key], win{index: i, from: f.At, to: f.At + f.Duration})
	}
	for _, wins := range byResource {
		sort.Slice(wins, func(a, b int) bool {
			if wins[a].from != wins[b].from {
				return wins[a].from < wins[b].from
			}
			return wins[a].index < wins[b].index
		})
		for j := 1; j < len(wins); j++ {
			prev, cur := wins[j-1], wins[j]
			if cur.from < prev.to {
				return &PlanError{
					Index: cur.index, Other: prev.index, Fault: p.Faults[cur.index],
					Reason: fmt.Sprintf("capacity window [%g,%g) overlaps window [%g,%g) on the same resource",
						cur.from, cur.to, prev.from, prev.to),
				}
			}
		}
	}
	return nil
}

// String renders the plan in the ParseSpec grammar.
func (p Plan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// String renders one fault in the ParseSpec grammar.
func (f Fault) String() string {
	kv := []string{}
	add := func(k string, v float64) { kv = append(kv, fmt.Sprintf("%s=%g", k, v)) }
	switch f.Kind {
	case OneOffDelay:
		add("rank", float64(f.Rank))
		add("at", f.At)
		add("delay", f.Delay)
	case Straggler:
		add("rank", float64(f.Rank))
		add("factor", f.Factor)
		if f.At > 0 {
			add("at", f.At)
		}
		if f.Duration > 0 {
			add("dur", f.Duration)
		}
	case LinkDegrade:
		add("node", float64(f.Node))
		add("at", f.At)
		add("dur", f.Duration)
		add("factor", f.Factor)
	case MemDegrade:
		add("domain", float64(f.Domain))
		add("at", f.At)
		add("dur", f.Duration)
		add("factor", f.Factor)
	case CtrGlitch:
		add("rank", float64(f.Rank))
		add("factor", f.Factor)
		if f.At > 0 {
			add("at", f.At)
		}
		if f.Duration > 0 {
			add("dur", f.Duration)
		}
	}
	return string(f.Kind) + ":" + strings.Join(kv, ",")
}

// kindKeys lists the ParseSpec keys each fault kind reads.  A key the
// kind ignores is rejected rather than stored: it would have no effect,
// and String, which renders only these keys, would silently drop it.
var kindKeys = map[Kind][]string{
	OneOffDelay: {"rank", "at", "delay"},
	Straggler:   {"rank", "factor", "at", "dur"},
	LinkDegrade: {"node", "at", "dur", "factor"},
	MemDegrade:  {"domain", "at", "dur", "factor"},
	CtrGlitch:   {"rank", "factor", "at", "dur"},
}

// ParseSpec parses the command-line fault grammar: semicolon-separated
// faults, each "kind:key=value,key=value".  Example:
//
//	oneoff:rank=3,at=0.002,delay=0.001;straggler:rank=0,factor=1.5
//
// Recognised keys are rank, node, domain, at, dur, delay and factor; a
// key the fault's kind does not read is an error (see kindKeys).  The
// result is not validated against a job shape; call Plan.Validate once
// ranks/nodes/domains are known.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, args, ok := strings.Cut(part, ":")
		if !ok {
			return Plan{}, fmt.Errorf("faults: %q: want kind:key=value,...", part)
		}
		f := Fault{Kind: Kind(strings.TrimSpace(kind))}
		keys, known := kindKeys[f.Kind]
		if !known {
			return Plan{}, fmt.Errorf("faults: unknown fault kind %q (want %s)", kind,
				strings.Join([]string{string(OneOffDelay), string(Straggler), string(LinkDegrade), string(MemDegrade), string(CtrGlitch)}, ", "))
		}
		for _, kvs := range strings.Split(args, ",") {
			kvs = strings.TrimSpace(kvs)
			if kvs == "" {
				continue
			}
			key, val, ok := strings.Cut(kvs, "=")
			if !ok {
				return Plan{}, fmt.Errorf("faults: %q: want key=value", kvs)
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: %s: bad value %q", key, val)
			}
			key = strings.TrimSpace(key)
			if !slices.Contains(keys, key) {
				return Plan{}, fmt.Errorf("faults: unknown key %q for %s in %q (want %s)", key, f.Kind, part, strings.Join(keys, ", "))
			}
			switch key {
			case "rank":
				f.Rank = int(v)
			case "node":
				f.Node = int(v)
			case "domain":
				f.Domain = int(v)
			case "at":
				f.At = v
			case "dur":
				f.Duration = v
			case "delay":
				f.Delay = v
			case "factor":
				f.Factor = v
			}
		}
		p.Faults = append(p.Faults, f)
	}
	return p, nil
}

// AfzalPlan builds the canonical one-off-delay experiment: a single
// injected delay on one rank, the setup of Afzal et al. whose
// propagation and decay through the job the analyzer should attribute as
// wait states.  The target defaults to the middle rank so the delay has
// neighbours on both sides to propagate into.
func AfzalPlan(ranks int, at, delay float64) Plan {
	return Plan{Faults: []Fault{{
		Kind:  OneOffDelay,
		Rank:  ranks / 2,
		At:    at,
		Delay: delay,
	}}}
}

// Describe returns a short human-readable summary, ordered by start
// time, for run banners and reports.
func (p Plan) Describe() string {
	if p.Empty() {
		return "no faults"
	}
	fs := slices.Clone(p.Faults)
	sort.SliceStable(fs, func(a, b int) bool { return fs[a].At < fs[b].At })
	parts := make([]string, len(fs))
	for n, f := range fs {
		switch f.Kind {
		case OneOffDelay:
			parts[n] = fmt.Sprintf("one-off +%gs on rank %d at t=%g", f.Delay, f.Rank, f.At)
		case Straggler:
			parts[n] = fmt.Sprintf("straggler x%g on rank %d", f.Factor, f.Rank)
		case LinkDegrade:
			parts[n] = fmt.Sprintf("nic%d at %.0f%% capacity for %gs at t=%g", f.Node, 100*f.Factor, f.Duration, f.At)
		case MemDegrade:
			parts[n] = fmt.Sprintf("numa%d at %.0f%% capacity for %gs at t=%g", f.Domain, 100*f.Factor, f.Duration, f.At)
		case CtrGlitch:
			parts[n] = fmt.Sprintf("hwctr +%.0f%% over-count on rank %d", 100*f.Factor, f.Rank)
		}
	}
	return strings.Join(parts, "; ")
}
