package scalasca

import (
	"fmt"
	"sort"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// CritPath is the result of a critical-path analysis: the chain of
// activities that determined the program's end-to-end run time.  Time
// spent waiting never lies on the critical path — whenever a location
// was blocked on a remote event, the path jumps to the location that
// caused the wait.  Scalasca offers the same analysis ("critical-path
// profile"); shortening anything on the path shortens the run, while
// optimising off-path code is futile.
type CritPath struct {
	// Total is the walked length in clock ticks (≈ the run time).
	Total float64
	// ByPath maps call-path strings to their exclusive time on the
	// critical path, in ticks.
	ByPath map[string]float64
	// Segments counts the cross-location jumps plus one.
	Segments int
}

// Share returns a call path's fraction of the critical path in percent.
func (c *CritPath) Share(path string) float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * c.ByPath[path] / c.Total
}

// TopPaths returns the largest contributors, descending.
func (c *CritPath) TopPaths(limit int) []struct {
	Path    string
	Percent float64
} {
	type entry struct {
		Path    string
		Percent float64
	}
	out := make([]entry, 0, len(c.ByPath))
	for p, v := range c.ByPath {
		out = append(out, entry{p, 100 * v / c.Total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Percent != out[j].Percent {
			return out[i].Percent > out[j].Percent
		}
		return out[i].Path < out[j].Path
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	res := make([]struct {
		Path    string
		Percent float64
	}, len(out))
	for i, e := range out {
		res[i] = struct {
			Path    string
			Percent float64
		}{e.Path, e.Percent}
	}
	return res
}

// locIndexState is the per-location forward precomputation the backward
// walk consumes: for every event interval, the governing call path and
// the enter time of the current region.
type locIndexState struct {
	path      []int32   // path[i]: call path during (events[i-1], events[i]]
	enterTime []float64 // enterTime[i]: enter stamp of the region governing event i
}

// CriticalPathAnalysis walks the trace backward from its last event,
// jumping to an event's cause whenever the local location was waiting
// for it, and attributes the walked intervals to their call paths.  A
// receive's cause is its matched send; a collective or barrier member's
// exit is caused by the latest-contributing member of its instance on
// another location (the first in location order on a tie); a worker's
// region by its fork and a join by the latest worker region it closes.
func CriticalPathAnalysis(tr *trace.Trace) (*CritPath, error) {
	x := vclock.NewExtractor(tr)
	paths := newPathTable(tr)
	states := make([]locIndexState, len(tr.Locs))
	for li, l := range tr.Locs {
		states[li] = paths.index(x, l.Events)
		x.EndLocation()
	}
	sk := x.Skeleton()
	for _, a := range sk.Anomalies {
		if a.Kind == vclock.UnbalancedExit {
			return nil, fmt.Errorf("scalasca: loc %d: unbalanced exit", a.Event.Loc)
		}
	}
	for i := 0; i < sk.Recvs.Len(); i++ {
		if r := sk.Recvs.At(i); r.Peer < 0 {
			return nil, fmt.Errorf("scalasca: loc %d event %d: receive without matching send", r.Loc, r.Index)
		}
	}
	cause := causes(tr, sk)
	// Start at the globally last event.
	start := vclock.EventRef{Loc: -1}
	var latest float64
	for li, l := range tr.Locs {
		if n := len(l.Events); n > 0 {
			t := float64(l.Events[n-1].Time)
			if start.Loc < 0 || t > latest {
				latest = t
				start = vclock.EventRef{Loc: li, Index: n - 1}
			}
		}
	}
	if start.Loc < 0 {
		return nil, fmt.Errorf("scalasca: empty trace")
	}
	cp := &CritPath{ByPath: make(map[string]float64), Segments: 1}
	sums := make([]float64, len(paths.names))
	walked := make([]bool, len(paths.names))
	cur := start
	// A terminating walk visits each event at most once.
	steps, limit := 0, tr.NumEvents()+1
	for cur.Index > 0 {
		if steps++; steps > limit {
			return nil, fmt.Errorf("scalasca: critical-path walk did not terminate")
		}
		if from, ok := cause.of(cur); ok {
			// Jump only if the remote cause arrived after this location
			// entered the blocking call — otherwise no waiting happened
			// here and the local timeline continues the path.
			if float64(from.Time) > states[cur.Loc].enterTime[cur.Index] {
				cur = from.EventRef
				cp.Segments++
				continue
			}
		}
		ev := tr.Locs[cur.Loc].Events
		dt := float64(ev[cur.Index].Time) - float64(ev[cur.Index-1].Time)
		if dt > 0 {
			id := states[cur.Loc].path[cur.Index]
			sums[id] += dt
			walked[id] = true
			cp.Total += dt
		}
		cur.Index--
	}
	for id, ok := range walked {
		if ok {
			cp.ByPath[paths.names[id]] = sums[id]
		}
	}
	return cp, nil
}

// causeTable holds each synchronisation target's cause: of all the
// events it directly follows, the latest, the first one offered on a
// tie.  It is indexed densely by event: slot[base[loc]+index] is one
// more than the index of the event's cause in events, 0 when it has
// none.
type causeTable struct {
	base   []int
	slot   []int32
	events []vclock.Event
}

// offer records from as a cause of to.
func (c *causeTable) offer(from, to vclock.Event) {
	s := &c.slot[c.base[to.Loc]+to.Index]
	if *s == 0 {
		c.events = append(c.events, from)
		*s = int32(len(c.events))
	} else if cur := &c.events[*s-1]; float64(from.Time) > float64(cur.Time) {
		*cur = from
	}
}

// of returns the event's cause, if it has one.
func (c *causeTable) of(e vclock.EventRef) (vclock.Event, bool) {
	if s := c.slot[c.base[e.Loc]+e.Index]; s > 0 {
		return c.events[s-1], true
	}
	return vclock.Event{}, false
}

// causes returns the cause table of the trace's skeleton.
func causes(tr *trace.Trace, sk *vclock.Skeleton) *causeTable {
	c := &causeTable{
		base:   make([]int, len(tr.Locs)),
		events: make([]vclock.Event, 0, sk.Recvs.Len()+sk.Colls.Len()+sk.Bars.Len()+sk.ForkJoinTargets()),
	}
	n := 0
	for li, l := range tr.Locs {
		c.base[li] = n
		n += len(l.Events)
	}
	c.slot = make([]int32, n)
	offer := c.offer
	for i := 0; i < sk.Recvs.Len(); i++ {
		r := sk.Recvs.At(i)
		offer(sk.Sends.At(int(r.Peer)).Record(), r.Record())
	}
	release := func(recs *vclock.Paged[vclock.Sync], ins []vclock.Instance) {
		for _, in := range ins {
			// The first latest contributor, and the first latest one on
			// another location than it: every member's cause is one of
			// the two.
			latest := func(skip int) *vclock.Sync {
				var best *vclock.Sync
				for _, m := range in.Members {
					if r := recs.At(int(m)); r.Loc != skip && (best == nil || float64(r.Source().Time) > float64(best.Source().Time)) {
						best = r
					}
				}
				return best
			}
			first := latest(-1)
			second := latest(first.Loc)
			for _, m := range in.Members {
				r, src := recs.At(int(m)), first
				if r.Loc == first.Loc {
					src = second
				}
				if src != nil {
					offer(src.Source(), r.ExitEvent())
				}
			}
		}
	}
	release(&sk.Colls, sk.CollIns)
	release(&sk.Bars, sk.BarIns)
	sk.ForkJoin(offer)
	return c
}

// pathTable interns call paths: each distinct path string gets one id,
// built once from its parent's string, so paths that join to the same
// string share their time on the walk.
type pathTable struct {
	tr     *trace.Trace
	names  []string           // id -> "/"-joined region names; id 0 is "" (no region open)
	byName map[string]int32   // names inverted
	child  map[[2]int32]int32 // (parent id, or -1 at top level; region) -> id
	stack  []pathFrame
}

type pathFrame struct {
	path  int32
	enter float64
}

func newPathTable(tr *trace.Trace) *pathTable {
	return &pathTable{
		tr:     tr,
		names:  []string{""},
		byName: map[string]int32{"": 0},
		child:  make(map[[2]int32]int32),
	}
}

func (p *pathTable) childOf(parent int32, region trace.RegionID) int32 {
	key := [2]int32{parent, int32(region)}
	if id, ok := p.child[key]; ok {
		return id
	}
	name := p.tr.RegionName(region)
	if parent >= 0 {
		name = p.names[parent] + "/" + name
	}
	id, ok := p.byName[name]
	if !ok {
		id = int32(len(p.names))
		p.names = append(p.names, name)
		p.byName[name] = id
	}
	p.child[key] = id
	return id
}

// index feeds one location's events to the extractor and precomputes the
// call path and region-enter time governing each of them.
func (p *pathTable) index(x *vclock.Extractor, events []trace.Event) locIndexState {
	st := locIndexState{
		path:      make([]int32, len(events)),
		enterTime: make([]float64, len(events)),
	}
	stack := p.stack[:0]
	for i, e := range events {
		x.Add(e, 0)
		// The interval (i-1, i] is governed by the stack BEFORE this
		// event is applied.
		parent := int32(-1)
		if n := len(stack); n > 0 {
			parent = stack[n-1].path
			st.path[i] = parent
			st.enterTime[i] = stack[n-1].enter
		}
		switch e.Kind {
		case trace.EvEnter:
			stack = append(stack, pathFrame{p.childOf(parent, e.Region), float64(e.Time)})
		case trace.EvExit:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	p.stack = stack
	return st
}
