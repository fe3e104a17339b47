package vclock

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/trace"
)

// Event is one record the skeleton names: where it sits, its stamp and
// operands, its kind, and the innermost region open when it was recorded
// (for an Exit, the region it closes; -1 at top level).
type Event struct {
	EventRef
	Time  uint64
	A, B  int32
	Scope trace.RegionID
	Kind  trace.EvKind
}

// Sync is one synchronisation record (a send, receive, collective end or
// OpenMP barrier) together with the region that encloses it.  Its
// fields are Event's, flattened so that the record packs into 80 bytes.
type Sync struct {
	EventRef
	Time     uint64
	A, B     int32
	Scope    trace.RegionID
	Kind     trace.EvKind
	ExitKind trace.EvKind // see Exit
	// Tag is the value the consumer passed with the record to
	// Extractor.Add (Scalasca passes the call path it was recorded in).
	Tag int32
	// Peer is, on a receive, the index into Skeleton.Sends of its
	// FIFO-matched send; it is -1 when no send matches and on every other
	// record.
	Peer int32
	// The Enter opening the enclosing region: its index, the region open
	// around it and its stamp.  At top level it is the record itself.
	Enter      int32
	EnterScope trace.RegionID
	EnterTime  uint64
	// The Exit closing that region.  When the region never closes (a
	// malformed trace) it is the location's last event instead.
	Exit      int32
	ExitScope trace.RegionID
	ExitTime  uint64
}

// Record returns the record itself.
func (s *Sync) Record() Event {
	return Event{EventRef: s.EventRef, Time: s.Time, A: s.A, B: s.B, Scope: s.Scope, Kind: s.Kind}
}

// ExitEvent returns the event closing the record's region (see Exit).
func (s *Sync) ExitEvent() Event {
	return Event{EventRef: EventRef{s.Loc, int(s.Exit)}, Time: s.ExitTime, Scope: s.ExitScope, Kind: s.ExitKind}
}

// Source returns the event a collective or barrier member contributes
// from: a barrier's own record, or a collective's enclosing Enter (the
// record itself at top level) — its contribution is made when the rank
// enters the call, which is the stamp its piggyback carries, while the
// CollEnd record is stamped after any spin-wait.
func (s *Sync) Source() Event {
	if s.Kind == trace.EvBarrier || int(s.Enter) == s.Index {
		return s.Record()
	}
	return Event{EventRef: EventRef{s.Loc, int(s.Enter)}, Time: s.EnterTime, Scope: s.EnterScope, Kind: trace.EvEnter}
}

// Member returns the record's part in its instance's release: every
// other member's Exit follows this member's Source.
func (s *Sync) Member() Member {
	return Member{Enter: s.Source().EventRef, Exit: EventRef{s.Loc, int(s.Exit)}}
}

// Paged is an append-only list kept in pages, so growing it never copies
// an element: a skeleton's record lists cost about their own size in
// allocations, where a growing slice would allocate several times that.
// Pages double from 16 elements to 256, then stay at 256.
type Paged[T any] struct {
	pages [][]T
	n     int
}

const (
	pageDoublings = 4                               // pages 0..4 hold 16, 32, ..., 256
	pageMax       = 16 << pageDoublings             // elements in every later page
	pageHead      = 16 * (1<<(pageDoublings+1) - 1) // elements in pages 0..4
)

// Len returns the number of elements.
func (l *Paged[T]) Len() int { return l.n }

// At returns element i.
func (l *Paged[T]) At(i int) *T {
	if i < pageHead {
		p := bits.Len(uint(i>>4+1)) - 1 // page p starts at element 16(2^p-1)
		return &l.pages[p][i-(16<<p-16)]
	}
	i -= pageHead
	return &l.pages[pageDoublings+1+i/pageMax][i%pageMax]
}

func (l *Paged[T]) add(v T) int {
	if k := len(l.pages); k == 0 || len(l.pages[k-1]) == cap(l.pages[k-1]) {
		l.pages = append(l.pages, make([]T, 0, 16<<min(k, pageDoublings)))
	}
	last := &l.pages[len(l.pages)-1]
	*last = append(*last, v)
	l.n++
	return l.n - 1
}

// Instance is one collective instance, keyed by (communicator, sequence
// number), or one OpenMP barrier instance, keyed by (rank, sequence
// number).
type Instance struct {
	Key, Seq int32
	// Members index Skeleton.Colls or Skeleton.Bars, in location order
	// (then stream order, when a location joins twice).
	Members []int32
}

// Team is one rank's OpenMP fork/join history.
type Team struct {
	Rank int32
	// Forks and Joins are the rank's Fork and Join records in stream
	// order, whichever thread recorded them.
	Forks, Joins Paged[Event]
	workers      []int // the rank's worker locations, ascending
}

// AnomalyKind classifies a structural anomaly.
type AnomalyKind uint8

// Structural anomalies.
const (
	UnbalancedExit  AnomalyKind = iota // an Exit while no region is open
	UnclosedRegions                    // regions still open at the end of a location
)

// Anomaly is one malformed structure the extractor met.  Event is the
// unbalanced Exit, or the Enter of the innermost region left open; Open
// counts the regions left open.
type Anomaly struct {
	Kind  AnomalyKind
	Event Event
	Open  int
}

// segment is one top-level region segment of a worker location: a
// worker only has events inside parallel regions, so its next unclaimed
// segment belongs to its rank's next fork.  It keeps what the fork and
// join edges need of its first and last events.
type segment struct {
	start, end           int32
	startTime, endTime   uint64
	startScope, endScope trace.RegionID
	startKind, endKind   trace.EvKind
}

func (g *segment) first(loc int) Event {
	return Event{EventRef: EventRef{loc, int(g.start)}, Time: g.startTime, Scope: g.startScope, Kind: g.startKind}
}

func (g *segment) last(loc int) Event {
	return Event{EventRef: EventRef{loc, int(g.end)}, Time: g.endTime, Scope: g.endScope, Kind: g.endKind}
}

// Skeleton is the synchronisation skeleton of a trace.  Everything is in
// stream order (location, then record) unless noted.
type Skeleton struct {
	Sends, Recvs Paged[Sync]
	// Orphans lists the Sends no receive consumed, ordered by channel
	// (src, dst, tag), then stream order.
	Orphans []int32
	Colls   Paged[Sync] // collective ends
	Bars    Paged[Sync] // OpenMP barrier records
	CollIns []Instance  // collective instances by (comm, seq)
	BarIns  []Instance  // barrier instances by (rank, seq)
	Teams   []Team      // ranks with a Fork or Join, ascending

	Anomalies []Anomaly

	// segs holds the worker locations' segments, location by location;
	// segFirst[l] is the first of location l's.
	segs     Paged[segment]
	segFirst []int
}

// Extractor builds a Skeleton from a trace's events, fed one location at
// a time in location order: Add each event of a location, then
// EndLocation, then the next location; Skeleton finishes the matching.
// Consumers that need their own per-event pass feed the extractor from
// it, so the trace is walked once.
type Extractor struct {
	tr     *trace.Trace
	k      *Skeleton
	loc    int
	index  int
	last   Event
	worker bool // the current location is a worker thread

	stack   []frame
	pending []pending

	segDepth int
	segOpen  bool
	seg      segment

	teams map[int32]int // rank -> index into k.Teams
}

// frame is one open region.
type frame struct {
	enter  int32
	time   uint64
	scope  trace.RegionID // the region open around the Enter
	region trace.RegionID
}

// pending is a Sync whose closing Exit has not been met: the Exit at
// depth resolves it.
type pending struct {
	list  *Paged[Sync]
	i     int
	depth int
}

// NewExtractor starts a skeleton of tr's locations.
func NewExtractor(tr *trace.Trace) *Extractor {
	x := &Extractor{
		tr:    tr,
		k:     &Skeleton{segFirst: make([]int, len(tr.Locs)+1)},
		teams: make(map[int32]int),
	}
	x.worker = len(tr.Locs) > 0 && tr.Locs[0].Thread != 0
	return x
}

func (x *Extractor) rank(loc int) int32 { return int32(x.tr.Locs[loc].Rank) }

// Add feeds the next event of the current location and returns its
// skeleton description.  tag is kept with synchronisation records.
func (x *Extractor) Add(e trace.Event, tag int32) Event {
	ev := Event{EventRef: EventRef{x.loc, x.index}, Time: e.Time, A: e.A, B: e.B, Scope: -1, Kind: e.Kind}
	if n := len(x.stack); n > 0 {
		ev.Scope = x.stack[n-1].region
	}
	x.index++
	switch e.Kind {
	case trace.EvEnter:
		x.stack = append(x.stack, frame{enter: int32(ev.Index), time: e.Time, scope: ev.Scope, region: e.Region})
	case trace.EvExit:
		d := len(x.stack)
		for n := len(x.pending); n > 0 && x.pending[n-1].depth == d; n-- {
			p := x.pending[n-1]
			s := p.list.At(p.i)
			s.Exit, s.ExitScope, s.ExitTime, s.ExitKind = int32(ev.Index), ev.Scope, ev.Time, ev.Kind
			x.pending = x.pending[:n-1]
		}
		if d == 0 {
			x.k.Anomalies = append(x.k.Anomalies, Anomaly{Kind: UnbalancedExit, Event: ev})
		} else {
			x.stack = x.stack[:d-1]
		}
	case trace.EvSend:
		x.sync(&x.k.Sends, ev, tag)
	case trace.EvRecv:
		x.sync(&x.k.Recvs, ev, tag)
	case trace.EvCollEnd:
		x.sync(&x.k.Colls, ev, tag)
	case trace.EvBarrier:
		x.sync(&x.k.Bars, ev, tag)
	case trace.EvFork, trace.EvJoin:
		t := x.team(x.rank(x.loc))
		if e.Kind == trace.EvFork {
			t.Forks.add(ev)
		} else {
			t.Joins.add(ev)
		}
	}
	if x.worker {
		if !x.segOpen {
			x.seg = segment{start: int32(ev.Index), startTime: ev.Time, startScope: ev.Scope, startKind: ev.Kind}
			x.segOpen = true
		}
		switch e.Kind {
		case trace.EvEnter:
			x.segDepth++
		case trace.EvExit:
			if x.segDepth--; x.segDepth == 0 {
				x.closeSegment(ev)
			}
		}
	}
	x.last = ev
	return ev
}

func (x *Extractor) sync(list *Paged[Sync], ev Event, tag int32) {
	s := Sync{
		EventRef: ev.EventRef, Time: ev.Time, A: ev.A, B: ev.B, Scope: ev.Scope, Kind: ev.Kind,
		Tag: tag, Peer: -1, Enter: int32(ev.Index), EnterScope: ev.Scope, EnterTime: ev.Time,
	}
	if n := len(x.stack); n > 0 {
		f := &x.stack[n-1]
		s.Enter, s.EnterScope, s.EnterTime = f.enter, f.scope, f.time
	}
	x.pending = append(x.pending, pending{list: list, i: list.add(s), depth: len(x.stack)})
}

func (x *Extractor) closeSegment(end Event) {
	x.seg.end, x.seg.endTime, x.seg.endScope, x.seg.endKind = int32(end.Index), end.Time, end.Scope, end.Kind
	x.k.segs.add(x.seg)
	x.segOpen = false
}

func (x *Extractor) team(rank int32) *Team {
	i, ok := x.teams[rank]
	if !ok {
		i = len(x.k.Teams)
		x.teams[rank] = i
		x.k.Teams = append(x.k.Teams, Team{Rank: rank})
	}
	return &x.k.Teams[i]
}

// EndLocation closes the current location: records whose region never
// closed get its last event as their Exit, an open worker segment ends
// there, and regions left open become an anomaly.
func (x *Extractor) EndLocation() {
	for _, p := range x.pending {
		s := p.list.At(p.i)
		s.Exit, s.ExitScope, s.ExitTime, s.ExitKind = int32(x.last.Index), x.last.Scope, x.last.Time, x.last.Kind
	}
	if x.segOpen {
		x.closeSegment(x.last)
	}
	if n := len(x.stack); n > 0 {
		f := x.stack[n-1]
		x.k.Anomalies = append(x.k.Anomalies, Anomaly{
			Kind:  UnclosedRegions,
			Event: Event{EventRef: EventRef{x.loc, int(f.enter)}, Time: f.time, Scope: f.scope, Kind: trace.EvEnter},
			Open:  n,
		})
	}
	x.loc++
	x.k.segFirst[x.loc] = x.k.segs.Len()
	x.worker = x.loc < len(x.tr.Locs) && x.tr.Locs[x.loc].Thread != 0
	x.index = 0
	x.stack = x.stack[:0]
	x.pending = x.pending[:0]
	x.segDepth, x.segOpen = 0, false
}

// chanKey is one ordered point-to-point channel; matching is FIFO per
// channel, the non-overtaking order MPI guarantees.
type chanKey struct{ src, dst, tag int32 }

// Skeleton finishes the extraction: receives match sends FIFO per
// channel in stream order, and collective and barrier records are
// grouped into instances.
func (x *Extractor) Skeleton() *Skeleton {
	k := x.k
	queues := make(map[chanKey][]int32)
	for i := 0; i < k.Sends.Len(); i++ {
		s := k.Sends.At(i)
		c := chanKey{x.rank(s.Loc), s.A, s.B}
		queues[c] = append(queues[c], int32(i))
	}
	for i := 0; i < k.Recvs.Len(); i++ {
		r := k.Recvs.At(i)
		c := chanKey{r.A, x.rank(r.Loc), r.B}
		if q := queues[c]; len(q) > 0 {
			r.Peer = q[0]
			queues[c] = q[1:]
		}
	}
	var left []chanKey
	for c, q := range queues {
		if len(q) > 0 {
			left = append(left, c)
		}
	}
	slices.SortFunc(left, func(a, b chanKey) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.tag, b.tag))
	})
	for _, c := range left {
		k.Orphans = append(k.Orphans, queues[c]...)
	}

	k.CollIns = instances(&k.Colls, func(s *Sync) [2]int32 { return [2]int32{s.A, s.B} })
	k.BarIns = instances(&k.Bars, func(s *Sync) [2]int32 { return [2]int32{x.rank(s.Loc), s.B} })

	slices.SortFunc(k.Teams, func(a, b Team) int { return cmp.Compare(a.Rank, b.Rank) })
	for i := range k.Teams {
		x.teams[k.Teams[i].Rank] = i
	}
	for li, l := range x.tr.Locs {
		if l.Thread == 0 {
			continue
		}
		if i, ok := x.teams[x.rank(li)]; ok {
			k.Teams[i].workers = append(k.Teams[i].workers, li)
		}
	}
	return k
}

// instances groups records by key, in key order; a group's members keep
// stream order, which is location order.  Counting first lets every
// instance's members share one exactly sized array.
func instances(recs *Paged[Sync], key func(*Sync) [2]int32) []Instance {
	at := make(map[[2]int32]int32)
	var keys [][2]int32
	var sizes []int32
	for i := 0; i < recs.Len(); i++ {
		k := key(recs.At(i))
		j, ok := at[k]
		if !ok {
			j = int32(len(keys))
			at[k] = j
			keys = append(keys, k)
			sizes = append(sizes, 0)
		}
		sizes[j]++
	}
	out := make([]Instance, len(keys))
	flat := make([]int32, recs.Len())
	for j, k := range keys {
		out[j] = Instance{Key: k[0], Seq: k[1], Members: flat[:0:sizes[j]]}
		flat = flat[sizes[j]:]
	}
	for i := 0; i < recs.Len(); i++ {
		j := at[key(recs.At(i))]
		out[j].Members = append(out[j].Members, int32(i))
	}
	slices.SortFunc(out, func(a, b Instance) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}

// ForkJoin calls fn for every fork and join edge, rank by rank: the
// i-th fork of a rank precedes the next unclaimed region segment of each
// of its worker locations (in location order), and the rank's i-th join
// follows the last segment each worker has had claimed so far.
func (k *Skeleton) ForkJoin(fn func(from, to Event)) {
	for _, t := range k.Teams {
		next := make([]int, len(t.workers)) // each worker's next unclaimed segment
		for w, li := range t.workers {
			next[w] = k.segFirst[li]
		}
		for i := 0; i < t.Forks.Len(); i++ {
			for w, li := range t.workers {
				if next[w] < k.segFirst[li+1] {
					fn(*t.Forks.At(i), k.segs.At(next[w]).first(li))
					next[w]++
				}
			}
			if i >= t.Joins.Len() {
				continue
			}
			for w, li := range t.workers {
				if next[w] > k.segFirst[li] {
					fn(k.segs.At(next[w]-1).last(li), *t.Joins.At(i))
				}
			}
		}
	}
}

// ForkJoinTargets bounds the distinct events ForkJoin's edges end at:
// each worker segment's first event (a fork's target) and each join.
func (k *Skeleton) ForkJoinTargets() int {
	n := k.segs.Len()
	for _, t := range k.Teams {
		n += t.Joins.Len()
	}
	return n
}

// Graph returns the skeleton in Unreached's form: message edges,
// then fork/join edges, and one group per collective, then barrier,
// instance.
func (k *Skeleton) Graph() ([]Edge, [][]Member) {
	var edges []Edge
	for i := 0; i < k.Recvs.Len(); i++ {
		if r := k.Recvs.At(i); r.Peer >= 0 {
			edges = append(edges, Edge{From: k.Sends.At(int(r.Peer)).EventRef, To: r.EventRef})
		}
	}
	k.ForkJoin(func(from, to Event) { edges = append(edges, Edge{From: from.EventRef, To: to.EventRef}) })
	groups := make([][]Member, 0, len(k.CollIns)+len(k.BarIns))
	for _, set := range []struct {
		recs *Paged[Sync]
		ins  []Instance
	}{{&k.Colls, k.CollIns}, {&k.Bars, k.BarIns}} {
		for _, in := range set.ins {
			g := make([]Member, len(in.Members))
			for i, m := range in.Members {
				g[i] = set.recs.At(int(m)).Member()
			}
			groups = append(groups, g)
		}
	}
	return edges, groups
}

// Extract builds the skeleton of a whole trace.
func Extract(tr *trace.Trace) *Skeleton {
	x := NewExtractor(tr)
	for _, l := range tr.Locs {
		for _, e := range l.Events {
			x.Add(e, 0)
		}
		x.EndLocation()
	}
	return x.Skeleton()
}
