// Package vclock extracts a trace's synchronisation skeleton and walks
// it in causal order — phase one of Sulzmann & Stadtmüller's two-phase
// analysis, and the post-processing step Ravel [19] builds its vector
// clocks on.
//
// The skeleton (Extractor, Skeleton) is collected in one pass per
// location: FIFO-matched messages, collective and barrier instances as
// member groups, fork/join edges and structural anomalies.  It is the
// one matcher every analysis derives its relations from — tracecheck's
// invariants, Scalasca's wait states, the critical path and the Perfetto
// flows.
//
// Checking a trace's recorded scalar stamps against Lamport's clock
// condition (if a → b then C(a) < C(b)) needs no vector clocks:
// happens-before is the transitive closure of program order and the
// skeleton's edges, so stamps that increase along every location and
// across every edge satisfy it for every ordered pair.  What the edges
// cannot show one at a time is a cycle, which Unreached finds by walking
// the skeleton with one frontier per location.  Vector clocks would only
// be needed to ask which events are concurrent, which nothing here asks.
package vclock

import (
	"cmp"
	"slices"
)

// EventRef identifies one event in a trace.
type EventRef struct {
	Loc   int // index into Trace.Locs
	Index int // index into the location's event slice
}

// Edge is one cross-location synchronisation: the receive-side event at
// To happens after the send-side event at From.
type Edge struct {
	From EventRef
	To   EventRef
}

// Member is one location's part in a collective or barrier instance:
// Enter carries its contribution and Exit is the event its release
// lands on.
type Member struct {
	Enter EventRef
	Exit  EventRef
}

// Unreached walks a synchronisation skeleton (Skeleton.Graph) in causal
// order and returns the number of events it cannot reach: 0 when the
// skeleton describes some execution, more when it has a cycle or an edge
// whose source never occurs.
//
// counts[l] is the number of events on location l.  Each edge orders
// its From before its To.  Each group is one collective or barrier
// instance: every member's Exit follows every other member's Enter
// (pairs on one location are not edges).
//
// The walk keeps one frontier per location and visits only the events
// the skeleton names, so it costs time in proportion to the skeleton and
// locations, not events × locations.  A group whose members sit on
// distinct locations, each entering strictly before it exits, releases
// every member once all have entered, which a count of pending members
// tracks; any other group is expanded into its pairwise edges.  An edge
// into an event that never occurs constrains nothing; an edge out of one
// leaves its target unreachable.
func Unreached(counts []int, edges []Edge, groups [][]Member) int {
	w := newWalk(counts, edges, groups)
	for progressed := true; progressed; {
		progressed = false
		for l := range counts {
			start := w.done[l]
			w.advance(l)
			progressed = progressed || w.done[l] > start
		}
	}
	n := 0
	for l, c := range counts {
		n += c - w.done[l]
	}
	return n
}

// Walk steps.  An event the skeleton names carries phase-0 steps (the
// dependencies that decide when it is ready) and phase-1 steps (the
// groups it enters).
const (
	opEdge  = iota // phase 0: wait for an edge's source
	opWait         // phase 0: wait until every member of a group has entered
	opEnter        // phase 1: enter a group
)

// step is one step of the walk on its location.  A location's steps sort
// by key, which orders them by event, then phase.
type step struct {
	key int   // index<<1 | phase
	arg int32 // edge or group index
	op  uint8
}

// walk is the frontier state of one Unreached call.
type walk struct {
	counts  []int
	edges   []Edge
	pending []int    // per group released at once: members not entered yet
	steps   [][]step // per location, the steps not walked yet
	done    []int    // events walked per location
}

func (w *walk) add(e EventRef, phase int, op uint8, arg int) {
	if e.Index < w.counts[e.Loc] {
		w.steps[e.Loc] = append(w.steps[e.Loc], step{key: e.Index<<1 | phase, arg: int32(arg), op: op})
	}
}

func newWalk(counts []int, edges []Edge, groups [][]Member) *walk {
	n := len(counts)
	w := &walk{
		counts: counts, edges: slices.Clip(edges), pending: make([]int, len(groups)),
		steps: make([][]step, n), done: make([]int, n),
	}
	mark := make([]int, n)
	for gi, g := range groups {
		if len(g) < 2 {
			continue
		}
		if hubSafe(g, mark, gi+1) {
			w.pending[gi] = len(g)
			for _, m := range g {
				w.add(m.Enter, 1, opEnter, gi)
				w.add(m.Exit, 0, opWait, gi)
			}
			continue
		}
		for _, a := range g {
			for _, b := range g {
				if a.Enter.Loc != b.Exit.Loc {
					w.edges = append(w.edges, Edge{From: a.Enter, To: b.Exit})
				}
			}
		}
	}
	for i, e := range w.edges {
		w.add(e.To, 0, opEdge, i)
	}
	for _, steps := range w.steps {
		slices.SortFunc(steps, func(a, b step) int { return cmp.Compare(a.key, b.key) })
	}
	return w
}

// hubSafe reports whether one release of the whole group orders it
// exactly as its pairwise edges would: members on distinct locations,
// each entering strictly before it exits on its own location.  Then a
// member's own entry, which the release also waits for, already precedes
// its exit.
func hubSafe(g []Member, mark []int, id int) bool {
	for _, m := range g {
		if m.Enter.Loc != m.Exit.Loc || m.Enter.Index >= m.Exit.Index || mark[m.Enter.Loc] == id {
			return false
		}
		mark[m.Enter.Loc] = id
	}
	return true
}

// advance walks location l past its named events until one is not ready
// or the location is exhausted.
func (w *walk) advance(l int) {
	for steps := w.steps[l]; len(steps) > 0; steps = w.steps[l] {
		idx := steps[0].key >> 1
		w.done[l] = idx
		j := 0
		for ; j < len(steps) && steps[j].key == idx<<1; j++ {
			if s := steps[j]; s.op == opEdge {
				if src := w.edges[s.arg].From; w.done[src.Loc] <= src.Index {
					return
				}
			} else if w.pending[s.arg] > 0 {
				return
			}
		}
		for ; j < len(steps) && steps[j].key == idx<<1|1; j++ {
			w.pending[steps[j].arg]--
		}
		w.steps[l] = steps[j:]
		w.done[l] = idx + 1
	}
	w.done[l] = w.counts[l]
}
