// Package machine models the simulated cluster hardware: cores grouped
// into NUMA domains, sockets and nodes; per-domain DRAM bandwidth with an
// L3 capacity model; and the network fabric.  It translates abstract work
// quanta (flops + bytes, see internal/work) into vtime actions whose
// durations emerge from contention on the shared resources.
package machine

import (
	"fmt"

	"repro/internal/noise"
	"repro/internal/vtime"
	"repro/internal/work"
)

// CoreID identifies one core in the allocation, numbered consecutively
// across nodes.
type CoreID int

// Machine binds a hardware Config to a vtime kernel.
type Machine struct {
	Cfg Config
	K   *vtime.Kernel

	domains []*vtime.Resource // DRAM bandwidth per NUMA domain
	nics    []*vtime.Resource // network adapter per node
	shm     []*vtime.Resource // intra-node transport per node
	ws      []float64         // registered working set per domain, bytes
	faults  FaultInjector
}

// FaultInjector is the hook through which a fault-injection layer
// (internal/faults) perturbs execution.  Unlike internal/noise, which
// models steady-state statistical disturbances, an injector models
// discrete faults — one-off delays, sustained stragglers, counter
// glitches — and must be fully deterministic so that faulted runs stay
// reproducible per (config, seed, plan).
type FaultInjector interface {
	// ComputeFault is consulted for every compute quantum on core c
	// starting at virtual time now with unperturbed duration base.  It
	// returns an extra delay in seconds (one-off fault injections) and a
	// multiplicative slowdown >= 1 on the quantum's CPU time (straggler
	// cores).
	ComputeFault(c CoreID, now, base float64) (delay, slow float64)
	// CounterGlitch returns spurious hardware-counter instructions to
	// add to the read-out of a quantum that executed instr instructions
	// on core c at time now.  Glitches corrupt only counter-based clocks
	// (lt_hwctr); they never change timing.
	CounterGlitch(c CoreID, now, instr float64) float64
}

// SetFaults installs a fault injector; nil removes it.  Call before the
// simulation starts.
func (m *Machine) SetFaults(f FaultInjector) { m.faults = f }

// Faults returns the installed fault injector, or nil.
func (m *Machine) Faults() FaultInjector { return m.faults }

// New creates the machine's resources on the given kernel.
func New(k *vtime.Kernel, cfg Config) *Machine {
	if cfg.Nodes <= 0 {
		panic("machine: config needs at least one node")
	}
	m := &Machine{Cfg: cfg, K: k}
	nd := cfg.TotalDomains()
	m.domains = make([]*vtime.Resource, nd)
	m.ws = make([]float64, nd)
	for d := 0; d < nd; d++ {
		m.domains[d] = k.NewResource(fmt.Sprintf("numa%d", d), cfg.DRAMBWPerDomain)
	}
	m.nics = make([]*vtime.Resource, cfg.Nodes)
	m.shm = make([]*vtime.Resource, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		m.nics[n] = k.NewResource(fmt.Sprintf("nic%d", n), cfg.InterNodeBW)
		m.shm[n] = k.NewResource(fmt.Sprintf("shm%d", n), cfg.IntraNodeBW)
	}
	return m
}

// NodeOf returns the node a core belongs to.
func (m *Machine) NodeOf(c CoreID) int { return int(c) / m.Cfg.CoresPerNode() }

// DomainOf returns the global NUMA domain index of a core.
func (m *Machine) DomainOf(c CoreID) int { return int(c) / m.Cfg.CoresPerDomain }

// SocketOf returns the global socket index of a core.
func (m *Machine) SocketOf(c CoreID) int {
	return int(c) / (m.Cfg.DomainsPerSocket * m.Cfg.CoresPerDomain)
}

// Domain returns the DRAM bandwidth resource of a global domain index
// (exposed for tests, diagnostics and fault injection).
func (m *Machine) Domain(d int) *vtime.Resource { return m.domains[d] }

// NIC returns the network adapter resource of a node.
func (m *Machine) NIC(node int) *vtime.Resource { return m.nics[node] }

// AddWorkingSet registers delta bytes of working set on the domain of the
// given core.  The measurement system uses this to model trace buffers
// competing for cache with the application (paper §V-C5: instrumentation
// "pushes the computation out of the cache" in TeaLeaf).
func (m *Machine) AddWorkingSet(c CoreID, delta float64) {
	d := m.DomainOf(c)
	m.ws[d] += delta
	if m.ws[d] < 0 {
		m.ws[d] = 0
	}
}

// WorkingSet returns the registered working set of a core's domain.
func (m *Machine) WorkingSet(c CoreID) float64 { return m.ws[m.DomainOf(c)] }

// MissRatio returns the fraction of a domain's memory traffic served from
// DRAM given its current working set.
func (m *Machine) MissRatio(d int) float64 {
	cfg := m.Cfg
	ws := m.ws[d]
	if ws <= cfg.L3PerDomain {
		return cfg.MinMissRatio
	}
	r := cfg.MinMissRatio + (ws-cfg.L3PerDomain)/(cfg.MissSharpness*cfg.L3PerDomain)
	if r > 1 {
		return 1
	}
	return r
}

// cpuSeconds converts the compute-bound parts of a cost into seconds on
// one core: the flop stream, the instruction stream and cache-resident
// traffic overlap, so the slowest one dominates.
func (m *Machine) cpuSeconds(c work.Cost, hitBytes float64) float64 {
	cfg := m.Cfg
	t := c.Flops / cfg.CoreFlops
	if ti := c.Instr / cfg.CoreIPS; ti > t {
		t = ti
	}
	if tc := hitBytes / cfg.CacheBWPerCore; tc > t {
		t = tc
	}
	return t
}

// Exec runs one work quantum from actor a pinned to core c.  The duration
// is the roofline maximum of the compute-bound time and the DRAM-bound
// time under the current fair share of the core's NUMA domain, plus any
// OS-noise detour from src (which may be nil for noise-free references).
func (m *Machine) Exec(a *vtime.Actor, c CoreID, cost work.Cost, src *noise.Source) {
	d := m.DomainOf(c)
	miss := m.MissRatio(d)
	missBytes := cost.Bytes * miss
	hitBytes := cost.Bytes - missBytes
	cpu := m.cpuSeconds(cost, hitBytes)
	var detour float64
	if src != nil {
		detour = src.ComputeDetour(a.Now(), cpu)
		if detour < 0 {
			// Favourable jitter shortens the compute phase instead of
			// being a separate negative delay.
			cpu *= 1 + detour/(cpu+1e-18)
			if cpu < 0 {
				cpu = 0
			}
			detour = 0
		}
	}
	if m.faults != nil {
		// Faults apply after noise so the noise streams draw exactly the
		// same sequence with and without a fault plan: injection changes
		// timing, never the per-location randomness.
		fd, slow := m.faults.ComputeFault(c, a.Now(), cpu)
		if slow > 1 {
			cpu *= slow
		}
		if fd > 0 {
			detour += fd
		}
	}
	if cpu <= 0 && missBytes <= 0 {
		if detour > 0 {
			a.Sleep(detour)
		}
		return
	}
	act := vtime.Action{Delay: detour, Work: 1}
	if cpu > 0 {
		act.RateCap = 1 / cpu
	}
	if missBytes > 0 {
		act.Res = m.domains[d]
		act.ResPerUnit = missBytes
	}
	a.Execute(act)
}

// TransferAction builds (but does not execute) the vtime action for moving
// bytes from srcCore's rank to dstCore's rank.  Same-node transfers use the
// node's shared-memory transport; cross-node transfers use the sender's
// network adapter (a deliberate simplification: receive-side contention is
// folded into the send side).  src may be nil for noise-free transfers.
func (m *Machine) TransferAction(srcCore, dstCore CoreID, bytes float64, src *noise.Source) vtime.Action {
	sn, dn := m.NodeOf(srcCore), m.NodeOf(dstCore)
	var lat float64
	var res *vtime.Resource
	if sn == dn {
		lat = m.Cfg.IntraNodeLatency
		res = m.shm[sn]
	} else {
		lat = m.Cfg.InterNodeLatency
		res = m.nics[sn]
	}
	if src != nil {
		lat = src.NetLatency(lat)
		bytes = src.NetBytes(bytes)
	}
	act := vtime.Action{Delay: lat}
	if bytes > 0 {
		act.Work = 1
		act.Res = res
		act.ResPerUnit = bytes
	}
	return act
}
