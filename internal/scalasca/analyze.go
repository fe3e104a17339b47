package scalasca

import (
	"fmt"

	"repro/internal/cube"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// compInterval records exclusive computation time for delay attribution.
type compInterval struct {
	start, end float64
	path       cube.PathID
}

// analysis carries the replay state.
type analysis struct {
	tr   *trace.Trace
	prof *cube.Profile
	m    metricSet

	// x collects the synchronisation skeleton the wait-state passes
	// replay, tagging each record with its call path.
	x    *vclock.Extractor
	comp [][]compInterval // loc -> intervals (time-ordered)

	teamSize map[int]int // rank -> thread count

	// stack is the replay call stack, shared across scanLocation calls so
	// its frames are reused instead of reallocated per location.
	stack []frame
}

// Analyze replays a complete trace and produces the analysis profile.
// Severities are in ticks of the trace's clock; normalise with the
// profile queries.  A region left open at the end of a location's
// events fails the replay.
func Analyze(tr *trace.Trace) (*cube.Profile, error) {
	nloc := len(tr.Locs)
	locNames := make([]string, nloc)
	for i, l := range tr.Locs {
		locNames[i] = fmt.Sprintf("r%dt%d", l.Rank, l.Thread)
	}
	prof := cube.New(tr.Clock, locNames)
	a := &analysis{
		tr:       tr,
		prof:     prof,
		m:        buildMetrics(prof),
		x:        vclock.NewExtractor(tr),
		comp:     make([][]compInterval, nloc),
		teamSize: make(map[int]int),
	}
	for _, l := range tr.Locs {
		if l.Thread+1 > a.teamSize[l.Rank] {
			a.teamSize[l.Rank] = l.Thread + 1
		}
	}
	for li := 0; li < nloc; li++ {
		if err := a.scanLocation(li); err != nil {
			return nil, err
		}
	}
	sk := a.x.Skeleton()
	a.messages(sk)
	a.collectives(sk)
	a.ompBarriers(sk)
	return prof, nil
}

// frame is one call-stack entry during replay.
type frame struct {
	path  cube.PathID
	role  trace.Role
	enter float64
}

// scanLocation walks one location's event stream: reconstructs the call
// tree, accumulates exclusive time per (metric, path), feeds the
// skeleton extractor (tagging each record with its call path), and
// accounts idle worker threads during the master's sequential phases.
func (a *analysis) scanLocation(li int) error {
	l := &a.tr.Locs[li]
	isMaster := l.Thread == 0
	workers := a.teamSize[l.Rank] - 1
	stack := a.stack[:0]
	var lastT float64
	haveLast := false
	inParallel := false

	for _, e := range l.Events {
		t := float64(e.Time)
		if !haveLast {
			lastT = t
			haveLast = true
		}
		dt := t - lastT
		if dt < 0 {
			dt = 0
		}
		lastT = t
		tag := int32(-1)
		if len(stack) > 0 {
			f := &stack[len(stack)-1]
			if dt > 0 {
				a.account(li, isMaster && !inParallel, workers, f, dt, t)
			}
			tag = int32(f.path)
		}
		a.x.Add(e, tag)

		switch e.Kind {
		case trace.EvEnter:
			parent := cube.PathID(cube.NoParent)
			if len(stack) > 0 {
				parent = stack[len(stack)-1].path
			}
			role := a.tr.Regions[e.Region].Role
			path := a.prof.Path(parent, a.tr.Regions[e.Region].Name)
			stack = append(stack, frame{path: path, role: role, enter: t})
		case trace.EvExit:
			if len(stack) == 0 {
				return fmt.Errorf("scalasca: loc %d: exit without enter", li)
			}
			stack = stack[:len(stack)-1]
		case trace.EvSend:
			if len(stack) == 0 {
				return fmt.Errorf("scalasca: loc %d: send outside region", li)
			}
		case trace.EvRecv:
			if len(stack) == 0 {
				return fmt.Errorf("scalasca: loc %d: recv outside region", li)
			}
		case trace.EvCollEnd:
			if len(stack) == 0 {
				return fmt.Errorf("scalasca: loc %d: collective end outside region", li)
			}
		case trace.EvFork:
			inParallel = true
		case trace.EvJoin:
			inParallel = false
		case trace.EvBarrier:
			if len(stack) == 0 {
				return fmt.Errorf("scalasca: loc %d: barrier event outside region", li)
			}
		}
	}
	a.stack = stack[:0]
	if len(stack) != 0 {
		return fmt.Errorf("scalasca: loc %d: %d unclosed regions at end of trace", li, len(stack))
	}
	a.x.EndLocation()
	return nil
}

// account attributes dt of exclusive time in frame f to the metric tree,
// and — when the master runs a sequential phase — charges idle time for
// the rank's parked workers at the master's current call path (Scalasca's
// idle-threads model; this is how serial regions surface, §V-C2).
func (a *analysis) account(li int, sequentialMaster bool, workers int, f *frame, dt, now float64) {
	p := a.prof
	m := a.m
	p.Add(m.time, f.path, li, dt)
	switch f.role {
	case trace.RoleUser, trace.RoleOmpLoop:
		p.Add(m.comp, f.path, li, dt)
		intervals := a.comp[li]
		// Merge adjacent intervals on the same path to keep the delay
		// pass cheap.
		if n := len(intervals); n > 0 && intervals[n-1].path == f.path && intervals[n-1].end == now-dt {
			intervals[n-1].end = now
			a.comp[li] = intervals
		} else {
			a.comp[li] = append(intervals, compInterval{start: now - dt, end: now, path: f.path})
		}
	case trace.RoleMPIP2P, trace.RoleMPIWait:
		p.Add(m.mpi, f.path, li, dt)
		p.Add(m.p2p, f.path, li, dt)
	case trace.RoleMPIColl:
		p.Add(m.mpi, f.path, li, dt)
		p.Add(m.collective, f.path, li, dt)
	case trace.RoleOmpMgmt, trace.RoleOmpParallel:
		p.Add(m.omp, f.path, li, dt)
		p.Add(m.ompMgmt, f.path, li, dt)
	case trace.RoleOmpBarrier:
		p.Add(m.omp, f.path, li, dt)
		p.Add(m.ompSync, f.path, li, dt)
	case trace.RoleOmpCritical:
		p.Add(m.omp, f.path, li, dt)
		p.Add(m.ompSync, f.path, li, dt)
	}
	if sequentialMaster && workers > 0 {
		idle := dt * float64(workers)
		p.Add(m.idle, f.path, li, idle)
		p.Add(m.time, f.path, li, idle)
	}
}
