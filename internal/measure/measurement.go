// Package measure is the measurement system — the role Score-P plays in
// the paper.  It wraps the simulated MPI and OpenMP runtimes with
// event-recording adapters (the analogues of the PMPI wrappers and Opari2
// instrumentation), stamps every event with the configured clock
// (internal/core), injects the measurement system's own overhead into the
// simulation, and assembles the trace (internal/trace).
//
// Applications are written against Rank and Thread; passing a nil
// *Measurement runs the same code uninstrumented, which is how reference
// timings are taken.
package measure

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/loc"
	"repro/internal/simmpi"
	"repro/internal/trace"
	"repro/internal/work"
)

// Measurement is one instrumented run: a configuration plus the trace
// being assembled.  Create it with New, wrap each rank's Proc via Rank,
// and read Trace when the simulation finishes.
type Measurement struct {
	Cfg   Config
	Trace *trace.Trace

	commIDs map[*simmpi.Comm]int32
	recs    map[int]*recorder // by location index
}

// New creates an empty measurement for one run.
func New(cfg Config) *Measurement {
	return &Measurement{
		Cfg:     cfg,
		Trace:   trace.New(string(cfg.Mode)),
		commIDs: make(map[*simmpi.Comm]int32),
		recs:    make(map[int]*recorder),
	}
}

func (m *Measurement) commID(c *simmpi.Comm) int32 {
	if id, ok := m.commIDs[c]; ok {
		return id
	}
	id := int32(len(m.commIDs))
	m.commIDs[c] = id
	return id
}

// recorder is the per-location measurement state: the clock, the region
// stack and the pending (not yet simulated) instrumentation overhead.
type recorder struct {
	m     *Measurement
	loc   *loc.Location
	clock core.Clock
	locIx int // index into Trace.Locs

	stack []trace.RegionID
	// names mirrors the region names on the stack; its join is the
	// location's current call path, used to root worker threads under
	// the master's fork-time path the way Scalasca does.
	names []string

	// regions caches this location's view of the trace's global region
	// intern table; enter consults it before interning a name.
	regions map[string]trace.RegionID

	pendingInstr  float64
	pendingBytes  float64
	bufEvents     int     // events since last working-set update
	bufRegistered float64 // buffer bytes already added to the working set
	barSeen       int32
}

func (m *Measurement) newRecorder(l *loc.Location) *recorder {
	if _, ok := m.recs[l.Index]; ok {
		panic(fmt.Sprintf("measure: location %d already has a recorder", l.Index))
	}
	clk := core.New(m.Cfg.Mode, l, l.Noise)
	if m.Cfg.DisablePiggyback {
		clk = noSyncClock{clk}
	}
	r := &recorder{
		m:     m,
		loc:   l,
		clock: clk,
		locIx: m.Trace.AddLocation(l.Rank, l.Thread),
	}
	m.recs[l.Index] = r
	return r
}

// noSyncClock drops incoming piggybacks (ablation of Algorithm 1 step 2).
type noSyncClock struct{ core.Clock }

func (noSyncClock) RecvPB(uint64) {}

// event stamps and appends an event, charging per-event overhead.
func (r *recorder) event(kind trace.EvKind, region trace.RegionID, a, b int32, c int64) {
	oh := &r.m.Cfg.Overhead
	r.pendingInstr += oh.EventInstr
	if r.m.Cfg.Mode == core.ModeHwctr || r.m.Cfg.Mode == core.ModeHwComb {
		r.pendingInstr += oh.CounterReadInstr
	}
	r.pendingBytes += oh.EventBytes
	r.bufEvents++
	if oh.WSUpdateEvery > 0 && r.bufEvents >= oh.WSUpdateEvery {
		grow := float64(r.bufEvents) * oh.BufferBytesPerEvent
		if oh.BufferCapBytes > 0 && r.bufRegistered+grow > oh.BufferCapBytes {
			grow = oh.BufferCapBytes - r.bufRegistered
		}
		if grow > 0 {
			r.loc.M.AddWorkingSet(r.loc.Core, grow)
			r.bufRegistered += grow
		}
		r.bufEvents = 0
	}
	r.m.Trace.Record(r.locIx, trace.Event{
		Kind: kind, Time: r.clock.Stamp(), Region: region, A: a, B: b, C: c,
	})
}

// enter pushes a user or runtime region and records its Enter event.
func (r *recorder) enter(name string, role trace.Role) {
	id, ok := r.regions[name]
	if !ok {
		id = r.m.Trace.Region(name, role)
		if r.regions == nil {
			r.regions = make(map[string]trace.RegionID)
		}
		r.regions[name] = id
	}
	r.stack = append(r.stack, id)
	r.names = append(r.names, name)
	r.event(trace.EvEnter, id, 0, 0, 0)
}

// callPath returns the location's current call path string.
func (r *recorder) callPath() string {
	return strings.Join(r.names, "/")
}

// exit pops the current region and records its Exit event.
func (r *recorder) exit() {
	if len(r.stack) == 0 {
		panic("measure: exit without matching enter")
	}
	top := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.names = r.names[:len(r.names)-1]
	r.event(trace.EvExit, top, 0, 0, 0)
}

// ompCallCounts charges the constant per-OpenMP-call effort the lt_bb and
// lt_stmt models assign to external runtime calls (X and Y, paper §II-A).
func (r *recorder) ompCallCounts() {
	r.loc.Counts.BB += r.m.Cfg.XBBPerOmpCall
	r.loc.Counts.Stmt += r.m.Cfg.YStmtPerOmpCall
}

// flush turns accumulated instrumentation overhead into simulated time if
// it has grown past the batching threshold (or force is set).  The cost is
// executed uncounted: instrumentation work consumes time and bandwidth but
// is not application effort, so the logical clocks do not see it.
func (r *recorder) flush(force bool) {
	oh := &r.m.Cfg.Overhead
	if r.pendingInstr == 0 && r.pendingBytes == 0 {
		return
	}
	if !force && r.pendingInstr < oh.FlushThresholdInstr {
		return
	}
	instr, bytes := r.pendingInstr, r.pendingBytes
	r.pendingInstr, r.pendingBytes = 0, 0
	r.loc.M.Exec(r.loc.Actor, r.loc.Core, work.Cost{Instr: instr, Bytes: bytes}, r.loc.Noise)
}
