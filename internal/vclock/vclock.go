// Package vclock extracts a trace's synchronisation skeleton and computes
// vector clocks over it in a post-processing step — the approach Ravel
// [19] takes, and the "improved clock algorithm" the paper points to for
// programs whose Lamport stamps are insufficient (§II: wildcard receives
// can make message matching, and therefore scalar logical stamps,
// timing-dependent).
//
// The skeleton (Extractor, Skeleton) is collected in one pass per
// location: FIFO-matched messages, collective and barrier instances as
// member groups, fork/join edges and structural anomalies.  It is the
// one matcher every analysis derives its relations from — tracecheck's
// invariants, Scalasca's wait states, the critical path and the Perfetto
// flows — after Sulzmann & Stadtmüller's two-phase analysis: collect the
// synchronisation events once, then derive happens-before from them.
//
// A vector clock V assigns each event a vector with one component per
// location; a happened-before b iff V(a) < V(b) component-wise.  Unlike
// the scalar Lamport clock, the vector clock characterises causality
// exactly, so it can verify that a trace's recorded scalar timestamps
// satisfy the clock condition (if a → b then C(a) < C(b)) — a structural
// invariant of every correctly synchronised logical measurement.
package vclock

import (
	"fmt"
	"slices"
	"sort"
)

// EventRef identifies one event in a trace.
type EventRef struct {
	Loc   int // index into Trace.Locs
	Index int // index into the location's event slice
}

// Clocks holds the vector timestamps of the events a replay was asked
// to keep.
type Clocks struct {
	// idx[loc] lists the kept events of the location in ascending index
	// order; vec[loc][i] is the vector of event idx[loc][i].
	idx [][]int
	vec [][][]uint32
}

// Vector returns the vector timestamp of an event, or nil when the
// replay did not keep it.
func (c *Clocks) Vector(e EventRef) []uint32 {
	i, ok := slices.BinarySearch(c.idx[e.Loc], e.Index)
	if !ok {
		return nil
	}
	return c.vec[e.Loc][i]
}

// HappensBefore reports whether event a causally precedes event b.  On
// one location that is program order.  Across locations, b's vector
// (which must have been kept) counts the events of a's location that
// precede b, so a precedes b iff that count exceeds a's index; on an
// acyclic replay this is exactly the component-wise V(a) < V(b).
func (c *Clocks) HappensBefore(a, b EventRef) bool {
	if a.Loc == b.Loc {
		return a.Index < b.Index
	}
	return int(c.Vector(b)[a.Loc]) > a.Index
}

// Concurrent reports whether two events are causally unordered.
func (c *Clocks) Concurrent(a, b EventRef) bool {
	return !c.HappensBefore(a, b) && !c.HappensBefore(b, a)
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

// ComputeFromEdges replays a synchronisation skeleton (Skeleton.Graph)
// and returns the vector timestamps of the events listed in keep.
//
// counts[l] is the number of events on location l.  Each edge orders
// its From before its To.  Each group is one collective or barrier
// instance: every member's Exit follows every other member's Enter
// (pairs on one location are not edges).
//
// The replay keeps one running vector per location and visits only the
// events the skeleton names, so it costs time in proportion to the
// skeleton and locations, not events × locations.  A vector outlives
// its event only while a later event still needs it: an edge source
// until its last target has read it, a group's hub until every member
// has been released, and the kept events.  A group whose members sit on
// distinct locations, each entering strictly before it exits, releases
// every member from one hub (the max of all members' entries); any
// other group is merged member by member.  A skeleton with a cycle, or
// an edge whose source never occurs, fails with the number of events
// the replay could not reach.
func ComputeFromEdges(counts []int, edges []Edge, groups [][]Member, keep []EventRef) (*Clocks, error) {
	r := newReplay(counts, edges, groups, keep)
	if stuck := r.run(); stuck > 0 {
		return nil, fmt.Errorf("vclock: synchronisation cycle or unmatched dependency (%d events stuck)", stuck)
	}
	return r.clocks(), nil
}

// Replay actions.  An event the skeleton names carries phase-0 actions
// (the incoming dependencies that decide when it is ready) and phase-1
// actions (what later events need from its vector).
const (
	opRead     = iota // phase 0: merge an edge source's snapshot
	opHubRead         // phase 0: merge a group's hub
	opWrite           // phase 1: snapshot the vector for an outgoing edge
	opHubWrite        // phase 1: fold the vector into a group's hub
	opKeep            // phase 1: keep the vector for the caller
)

// action is one step of the replay.  Actions sort by key, which orders
// them by location, then event, then phase.
type action struct {
	key uint64 // (loc*stride + index)<<1 | phase
	arg int32  // edge, hub or keep index
	op  uint8
}

// hub is a group's shared release vector: the max of its members'
// entries once pending reaches zero, freed when the last member has
// read it.
type hub struct {
	vec     []uint32
	pending int // members whose entry is not replayed yet
	readers int // members whose exit has not read the hub yet
}

// snapshot is one edge source's vector, shared by every edge leaving
// that event and freed when the last of them has been read.
type snapshot struct {
	vec  []uint32
	refs int
}

// replay is the frontier state of one ComputeFromEdges call.
type replay struct {
	counts []int
	stride uint64 // key stride per location: one past the longest location
	edges  []Edge
	keep   []EventRef
	acts   []action
	end    []int // end[l]: one past location l's last action

	cur  [][]uint32 // running vector per location, made at its first named event
	pos  []int      // next action per location
	done []int      // events replayed per location

	hubs     []hub
	snaps    []snapshot
	freeSnap []int32
	edgeSnap []int32 // snapshot each edge's source wrote
	pool     [][]uint32
	kept     [][]uint32
}

func (r *replay) key(e EventRef, phase uint64) uint64 {
	return (uint64(e.Loc)*r.stride+uint64(e.Index))<<1 | phase
}

// occurs reports whether an event lies within its location's stream.
func (r *replay) occurs(e EventRef) bool { return e.Index < r.counts[e.Loc] }

func (r *replay) act(e EventRef, phase uint64, op uint8, arg int) {
	if r.occurs(e) {
		r.acts = append(r.acts, action{key: r.key(e, phase), arg: int32(arg), op: op})
	}
}

func newReplay(counts []int, edges []Edge, groups [][]Member, keep []EventRef) *replay {
	n := len(counts)
	r := &replay{counts: counts, keep: keep}
	for _, c := range counts {
		r.stride = max(r.stride, uint64(c)+1)
	}
	// Hub-safe groups get hubs; the rest become pairwise edges.  An edge
	// into an event that never occurs constrains nothing; an edge out
	// of one leaves its target unreachable, since it is never written.
	mark := make([]int, n)
	safe := make([]bool, len(groups))
	nacts, pairs := len(keep), 0
	for gi, g := range groups {
		if len(g) < 2 {
			continue
		}
		if safe[gi] = hubSafe(g, mark, gi+1); safe[gi] {
			nacts += 2 * len(g)
		} else {
			pairs += len(g) * len(g)
		}
	}
	r.edges = make([]Edge, 0, len(edges)+pairs)
	for _, e := range edges {
		if r.occurs(e.To) {
			r.edges = append(r.edges, e)
		}
	}
	for gi, g := range groups {
		if len(g) < 2 || safe[gi] {
			continue
		}
		for _, a := range g {
			for _, b := range g {
				if a.Enter.Loc != b.Exit.Loc && r.occurs(b.Exit) {
					r.edges = append(r.edges, Edge{From: a.Enter, To: b.Exit})
				}
			}
		}
	}
	r.acts = make([]action, 0, nacts+2*len(r.edges))
	for gi, g := range groups {
		if !safe[gi] {
			continue
		}
		h := len(r.hubs)
		r.hubs = append(r.hubs, hub{pending: len(g)})
		for _, m := range g {
			r.act(m.Enter, 1, opHubWrite, h)
			if r.occurs(m.Exit) {
				r.hubs[h].readers++
				r.act(m.Exit, 0, opHubRead, h)
			}
		}
	}
	for i, e := range r.edges {
		r.act(e.From, 1, opWrite, i)
		r.act(e.To, 0, opRead, i)
	}
	for i, e := range keep {
		r.act(e, 1, opKeep, i)
	}
	r.acts = sortActions(r.acts)

	r.pos = make([]int, n)
	r.end = make([]int, n)
	for _, a := range r.acts {
		r.end[a.key>>1/r.stride]++
	}
	sum := 0
	for l := range r.end {
		r.pos[l] = sum
		sum += r.end[l]
		r.end[l] = sum
	}
	r.cur = make([][]uint32, n)
	r.done = make([]int, n)
	r.edgeSnap = make([]int32, len(r.edges))
	r.kept = make([][]uint32, len(keep))
	return r
}

// sortActions orders actions by key: a least-significant-digit radix
// sort over the bits the keys actually use, linear in the skeleton.
func sortActions(acts []action) []action {
	const bits = 11
	var top uint64
	for _, a := range acts {
		top = max(top, a.key)
	}
	var count [1 << bits]int
	tmp := make([]action, len(acts))
	for shift := 0; shift < 64 && top>>shift > 0; shift += bits {
		clear(count[:])
		for _, a := range acts {
			count[a.key>>shift&(1<<bits-1)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, a := range acts {
			d := a.key >> shift & (1<<bits - 1)
			tmp[count[d]] = a
			count[d]++
		}
		acts, tmp = tmp, acts
	}
	return acts
}

// hubSafe reports whether one hub vector releases the group exactly as
// its pairwise edges would: members on distinct locations, each entering
// strictly before it exits on its own location.  Then a member's own
// entry, which the hub also carries, already precedes its exit.
func hubSafe(g []Member, mark []int, id int) bool {
	for _, m := range g {
		if m.Enter.Loc != m.Exit.Loc || m.Enter.Index >= m.Exit.Index || mark[m.Enter.Loc] == id {
			return false
		}
		mark[m.Enter.Loc] = id
	}
	return true
}

// run replays until no location can advance and returns how many events
// were never reached.
func (r *replay) run() int {
	for progressed := true; progressed; {
		progressed = false
		for l := range r.counts {
			start := r.done[l]
			r.advance(l)
			progressed = progressed || r.done[l] > start
		}
	}
	stuck := 0
	for l, n := range r.counts {
		stuck += n - r.done[l]
	}
	return stuck
}

// advance replays location l's named events until one is not ready or
// the location is exhausted.
func (r *replay) advance(l int) {
	base := uint64(l) * r.stride
	v := r.cur[l]
	if v == nil && r.pos[l] < r.end[l] {
		v = make([]uint32, len(r.counts))
		r.cur[l] = v
	}
	for r.pos[l] < r.end[l] {
		first := r.pos[l]
		idx := int(r.acts[first].key>>1 - base)
		r.done[l] = idx
		in := (base + uint64(idx)) << 1
		j := first
		for ; j < r.end[l] && r.acts[j].key == in; j++ {
			a := r.acts[j]
			if a.op == opRead {
				if src := r.edges[a.arg].From; r.done[src.Loc] <= src.Index {
					return
				}
			} else if h := &r.hubs[a.arg]; h.pending > 0 {
				return
			}
		}
		v[l] = uint32(idx + 1)
		for _, a := range r.acts[first:j] {
			if a.op == opRead {
				s := &r.snaps[r.edgeSnap[a.arg]]
				maxInto(v, s.vec)
				if s.refs--; s.refs == 0 {
					r.pool = append(r.pool, s.vec)
					s.vec = nil
					r.freeSnap = append(r.freeSnap, r.edgeSnap[a.arg])
				}
			} else {
				h := &r.hubs[a.arg]
				maxInto(v, h.vec)
				if h.readers--; h.readers == 0 {
					r.pool = append(r.pool, h.vec)
					h.vec = nil
				}
			}
		}
		out := in | 1
		snap := int32(-1)
		for ; j < r.end[l] && r.acts[j].key == out; j++ {
			a := r.acts[j]
			switch a.op {
			case opWrite:
				if snap < 0 {
					snap = r.snapshot(v)
				}
				r.edgeSnap[a.arg] = snap
				r.snaps[snap].refs++
			case opHubWrite:
				h := &r.hubs[a.arg]
				if h.vec == nil {
					h.vec = r.vector()
					clear(h.vec)
				}
				maxInto(h.vec, v)
				h.pending--
			case opKeep:
				r.kept[a.arg] = slices.Clone(v)
			}
		}
		r.pos[l] = j
		r.done[l] = idx + 1
	}
	r.done[l] = r.counts[l]
}

// vector returns a recycled (dirty) or new vector.
func (r *replay) vector() []uint32 {
	if k := len(r.pool); k > 0 {
		v := r.pool[k-1]
		r.pool = r.pool[:k-1]
		return v
	}
	return make([]uint32, len(r.counts))
}

// snapshot copies v into a free snapshot slot.
func (r *replay) snapshot(v []uint32) int32 {
	vec := r.vector()
	copy(vec, v)
	if k := len(r.freeSnap); k > 0 {
		i := r.freeSnap[k-1]
		r.freeSnap = r.freeSnap[:k-1]
		r.snaps[i] = snapshot{vec: vec}
		return i
	}
	r.snaps = append(r.snaps, snapshot{vec: vec})
	return int32(len(r.snaps) - 1)
}

// clocks indexes the kept vectors by location.
func (r *replay) clocks() *Clocks {
	n := len(r.counts)
	c := &Clocks{idx: make([][]int, n), vec: make([][][]uint32, n)}
	order := make([]int, len(r.keep))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := r.keep[order[i]], r.keep[order[j]]
		return a.Loc < b.Loc || a.Loc == b.Loc && a.Index < b.Index
	})
	for _, k := range order {
		e := r.keep[k]
		c.idx[e.Loc] = append(c.idx[e.Loc], e.Index)
		c.vec[e.Loc] = append(c.vec[e.Loc], r.kept[k])
	}
	return c
}

func maxInto(dst, src []uint32) {
	src = src[:len(dst)]
	for i, x := range src {
		if x > dst[i] {
			dst[i] = x
		}
	}
}
