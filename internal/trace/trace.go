// Package trace defines the event trace model produced by the measurement
// system and consumed by the analyzer — the role OTF2 plays between
// Score-P and Scalasca in the paper.  A trace holds one event stream per
// location (each OpenMP thread of each MPI rank), a shared region table,
// and the name of the clock that minted the timestamps.  As in the
// paper's post-mortem workflow, a trace file is written once its run
// has completed and is read only after that: no reader follows a file
// that is still being written.
package trace

import "fmt"

// Role classifies a region for the analyzer's metric tree (paper Fig. 1).
type Role uint8

// Region roles.
const (
	RoleUser        Role = iota // application computation
	RoleMPIP2P                  // MPI point-to-point call
	RoleMPIColl                 // MPI collective call
	RoleMPIWait                 // MPI completion call (Wait/Waitall)
	RoleOmpMgmt                 // OpenMP fork/join management
	RoleOmpLoop                 // OpenMP worksharing loop body
	RoleOmpBarrier              // OpenMP barrier
	RoleOmpCritical             // OpenMP critical section
	RoleOmpParallel             // OpenMP parallel region (per-thread)
)

// String returns a short role mnemonic.
func (r Role) String() string {
	switch r {
	case RoleUser:
		return "user"
	case RoleMPIP2P:
		return "mpi-p2p"
	case RoleMPIColl:
		return "mpi-coll"
	case RoleMPIWait:
		return "mpi-wait"
	case RoleOmpMgmt:
		return "omp-mgmt"
	case RoleOmpLoop:
		return "omp-loop"
	case RoleOmpBarrier:
		return "omp-barrier"
	case RoleOmpCritical:
		return "omp-critical"
	case RoleOmpParallel:
		return "omp-parallel"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// IsMPI reports whether the role is any MPI call.
func (r Role) IsMPI() bool { return r == RoleMPIP2P || r == RoleMPIColl || r == RoleMPIWait }

// IsOmp reports whether the role is an OpenMP runtime construct (loop
// bodies and parallel-region bodies count as user computation).
func (r Role) IsOmp() bool {
	return r == RoleOmpMgmt || r == RoleOmpBarrier || r == RoleOmpCritical
}

// RegionID indexes the trace's region table.
type RegionID int32

// RegionDef describes one instrumented region.
type RegionDef struct {
	Name string
	Role Role
}

// EvKind discriminates event records.
type EvKind uint8

// Event kinds.
const (
	EvEnter EvKind = iota
	EvExit
	EvSend    // A=destination world rank, B=tag, C=bytes
	EvRecv    // A=source world rank, B=tag, C=bytes
	EvCollEnd // A=comm id, B=instance seq, C=bytes (inside a coll region)
	EvFork    // A=team size, B=parallel-region instance (master only)
	EvJoin    // B=parallel-region instance (master only)
	EvBarrier // A=team size, B=barrier instance (inside a barrier region)
)

// String returns the kind mnemonic.
func (k EvKind) String() string {
	switch k {
	case EvEnter:
		return "ENTER"
	case EvExit:
		return "EXIT"
	case EvSend:
		return "SEND"
	case EvRecv:
		return "RECV"
	case EvCollEnd:
		return "COLLEND"
	case EvFork:
		return "FORK"
	case EvJoin:
		return "JOIN"
	case EvBarrier:
		return "BARRIER"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record.  Time is in clock ticks of the trace's clock;
// Region is valid for Enter/Exit; A, B, C are kind-specific (see EvKind).
type Event struct {
	Kind   EvKind
	Time   uint64
	Region RegionID
	A, B   int32
	C      int64
}

// LocTrace is the event stream of one location.
type LocTrace struct {
	Rank, Thread int
	Events       []Event
}

// Trace is a complete measurement result.
type Trace struct {
	Clock   string // clock mode name, e.g. "tsc", "lt_stmt"
	Regions []RegionDef
	Locs    []LocTrace

	regionIDs map[string]RegionID
}

// New creates an empty trace for the given clock mode.
func New(clock string) *Trace {
	return &Trace{Clock: clock, regionIDs: make(map[string]RegionID)}
}

// Region interns a region definition and returns its id.  Repeated calls
// with the same name return the same id; the role must not change.
func (t *Trace) Region(name string, role Role) RegionID {
	if id, ok := t.regionIDs[name]; ok {
		if t.Regions[id].Role != role {
			panic(fmt.Sprintf("trace: region %q re-registered with role %v (was %v)",
				name, role, t.Regions[id].Role))
		}
		return id
	}
	id := RegionID(len(t.Regions))
	t.Regions = append(t.Regions, RegionDef{Name: name, Role: role})
	t.regionIDs[name] = id
	return id
}

// RegionName returns the name of a region id.
func (t *Trace) RegionName(id RegionID) string { return t.Regions[id].Name }

// AddLocation appends an empty location stream and returns its index.
func (t *Trace) AddLocation(rank, thread int) int {
	t.Locs = append(t.Locs, LocTrace{Rank: rank, Thread: thread})
	return len(t.Locs) - 1
}

// Record adds an event to location stream l.  It is the measurement
// system's per-event hot path.  Growth starts at a 256-event floor so a
// stream reaches steady state in a handful of reallocations instead of
// crawling through append's small-slice sizes.
func (t *Trace) Record(l int, e Event) {
	lt := &t.Locs[l]
	if len(lt.Events) == cap(lt.Events) {
		grown := make([]Event, len(lt.Events), max(2*cap(lt.Events), 256))
		copy(grown, lt.Events)
		lt.Events = grown
	}
	lt.Events = append(lt.Events, e)
}

// ResetEvents empties every location's event stream while keeping the
// allocated capacity, so a trace shell can be refilled without
// reallocating its buffers (benchmark and replay harnesses).
func (t *Trace) ResetEvents() {
	for i := range t.Locs {
		t.Locs[i].Events = t.Locs[i].Events[:0]
	}
}

// NumEvents returns the total number of events across all locations.
func (t *Trace) NumEvents() int {
	n := 0
	for _, l := range t.Locs {
		n += len(l.Events)
	}
	return n
}
