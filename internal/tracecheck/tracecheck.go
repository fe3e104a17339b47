// Package tracecheck is an offline static-analysis pass over recorded
// traces: it takes the true happens-before relation from the matched
// sends/receives, collectives, OpenMP barriers and fork/join events of
// vclock's synchronisation skeleton — phase one of the two-phase
// analysis of Sulzmann & Stadtmüller (arXiv:1807.03585) applied to LTRC
// traces — and verifies a battery of structural invariants against it.
// Verify reads a complete in-memory *trace.Trace, after its run has
// ended: a recorded run's, or one decoded from a trace file
// (trace.ReadFile).  Like the second phase of that analysis, it runs
// over the whole recorded log; it has no mode for a partial trace.
//
// The paper's whole argument rests on logical timestamps satisfying
// Lamport's clock condition (e → f ⇒ ts(e) < ts(f)) so that Scalasca's
// replay sees causally consistent traces.  tracecheck turns that
// assumption into a checked invariant: every violation is reported as a
// structured record naming the kind, the ranks and regions involved, the
// event indices and the clock values, so a broken clock mode (or a
// corrupted trace) points at the exact offending records.
//
// Checked invariants, per clock mode:
//
//   - clock condition: for every synchronisation edge a → b of a logical
//     trace, ts(a) < ts(b).  With the monotonicity below this covers
//     every causally ordered pair, since happens-before is the transitive
//     closure of program order and those edges.
//   - per-location monotonicity: logical stamps strictly increase along
//     each location's stream; physical (tsc) stamps never decrease.
//   - causality: the synchronisation edges form no cycle, so the trace
//     describes some execution (checked on physical traces too, whose
//     per-rank clock offsets may legitimately reverse stamps across an
//     edge).
//   - message matching: every receive has a FIFO-matching send on its
//     (src, dst, tag) channel, and no send is left unconsumed.
//   - collective consistency: each rank observes a communicator's
//     instances in sequence order 0,1,2,…; every instance is joined by
//     the communicator's full membership, exactly once per member, under
//     the same operation name.
//   - barrier consistency: every OpenMP barrier instance is reached by
//     the full team, in per-thread sequence order.
//   - fork/join nesting: forks and joins appear on master threads only,
//     strictly alternating with matching sequence numbers.
//   - piggyback sync: on a logical trace, a synchronisation edge must
//     advance the receiver past the sender's stamp by at least two ticks
//     (fold pb+1, then stamp); an edge that gains exactly one tick means
//     the piggyback was dropped even though the clock condition happens
//     to hold.
//   - region balance: Enter/Exit events nest properly on every location.
package tracecheck

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Kind classifies a violation.
type Kind string

// Violation kinds.
const (
	KindClockCondition  Kind = "clock-condition"
	KindMonotonic       Kind = "nonmonotonic-timestamp"
	KindUnmatchedRecv   Kind = "unmatched-recv"
	KindOrphanSend      Kind = "orphan-send"
	KindCollOrder       Kind = "collective-order"
	KindCollParticipant Kind = "collective-participants"
	KindBarrier         Kind = "barrier-mismatch"
	KindForkJoin        Kind = "fork-join"
	KindUnbalanced      Kind = "unbalanced-region"
	KindPiggyback       Kind = "piggyback-sync"
	KindCycle           Kind = "causality-cycle"
)

// EventPos pinpoints one event record with enough context to find it in
// a trace dump: location index, rank/thread, event index, the record
// kind, the innermost enclosing region and the recorded clock value.
type EventPos struct {
	Loc    int    `json:"loc"`
	Index  int    `json:"index"`
	Rank   int    `json:"rank"`
	Thread int    `json:"thread"`
	Kind   string `json:"kind"`
	Region string `json:"region,omitempty"`
	Time   uint64 `json:"time"`
}

// wholeTrace is the position of a violation that no single event
// carries, such as a causality cycle.
var wholeTrace = EventPos{Loc: -1, Index: -1, Rank: -1, Thread: -1}

func (p EventPos) String() string {
	if p.Loc < 0 {
		return "trace"
	}
	s := fmt.Sprintf("rank %d thread %d event %d %s t=%d", p.Rank, p.Thread, p.Index, p.Kind, p.Time)
	if p.Region != "" {
		s += " in " + p.Region
	}
	return s
}

// Violation is one invariant breach.  Event is the primary offending
// record; Peer, when set, is the other end of the synchronisation edge
// (the matched send for a receive-side breach, and so on).
type Violation struct {
	Kind   Kind      `json:"kind"`
	Event  EventPos  `json:"event"`
	Peer   *EventPos `json:"peer,omitempty"`
	Detail string    `json:"detail"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s: %s", v.Kind, v.Event)
	if v.Peer != nil {
		s += fmt.Sprintf(" <- %s", *v.Peer)
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return s
}

// Report summarises one verification run.
type Report struct {
	Clock   string `json:"clock"`
	Logical bool   `json:"logical"` // strict logical-clock invariants applied
	Locs    int    `json:"locations"`
	Events  int    `json:"events"`
	Edges   int    `json:"edges"` // synchronisation edges reconstructed
	// Counts is the total number of violations per kind, including any
	// past the per-kind recording cap.
	Counts     map[Kind]int `json:"counts,omitempty"`
	Violations []Violation  `json:"violations,omitempty"`
}

// OK reports whether no invariant was violated.
func (r *Report) OK() bool { return len(r.Counts) == 0 }

// NumViolations returns the total violation count across kinds.
func (r *Report) NumViolations() int {
	n := 0
	for _, c := range r.Counts {
		n += c
	}
	return n
}

// Render writes a human-readable summary followed by up to limit
// violations (0 = all recorded).
func (r *Report) Render(w io.Writer, limit int) {
	verdict := "OK"
	if !r.OK() {
		verdict = fmt.Sprintf("%d violations", r.NumViolations())
	}
	mode := "physical"
	if r.Logical {
		mode = "logical"
	}
	fmt.Fprintf(w, "tracecheck %s (%s): %d locations, %d events, %d sync edges — %s\n",
		r.Clock, mode, r.Locs, r.Events, r.Edges, verdict)
	kinds := make([]Kind, 0, len(r.Counts))
	for k := range r.Counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-24s %d\n", k, r.Counts[k])
	}
	n := len(r.Violations)
	if limit > 0 && n > limit {
		n = limit
	}
	for _, v := range r.Violations[:n] {
		fmt.Fprintf(w, "  %s\n", v)
	}
	if n < len(r.Violations) {
		fmt.Fprintf(w, "  ... %d more recorded\n", len(r.Violations)-n)
	}
}

// maxPerKind caps the violations recorded per kind; the totals in
// Report.Counts keep counting past it.
const maxPerKind = 100

// Options tunes a verification run.  It has no fields; Verify keeps the
// parameter so that existing callers compile unchanged.
type Options struct{}

// Logical reports whether a clock name denotes a logical (Lamport-style,
// piggyback-synchronised) mode, for which the strict invariants apply.
func Logical(clock string) bool { return strings.HasPrefix(clock, "lt_") }

// Verify runs every invariant check against the trace and returns the
// report.  It never fails: structural problems (unmatched receives,
// broken nesting, causality cycles) become violations, so a partially
// corrupted trace still yields a maximally informative report.  One
// pass over the events feeds vclock's skeleton extractor, and the edge
// checks and the cycle walk visit that skeleton alone.
func Verify(tr *trace.Trace, _ Options) *Report {
	c := &checker{
		tr: tr,
		rep: &Report{
			Clock:   tr.Clock,
			Logical: Logical(tr.Clock),
			Locs:    len(tr.Locs),
			Events:  tr.NumEvents(),
			Counts:  make(map[Kind]int),
		},
	}
	c.scan()
	c.checkMessages()
	c.checkCollectives()
	c.checkBarriers()
	c.checkForkJoin()
	c.checkEdges()
	c.checkCycles()
	sort.SliceStable(c.rep.Violations, func(i, j int) bool {
		a, b := c.rep.Violations[i], c.rep.Violations[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Event.Loc != b.Event.Loc {
			return a.Event.Loc < b.Event.Loc
		}
		return a.Event.Index < b.Event.Index
	})
	if len(c.rep.Counts) == 0 {
		c.rep.Counts = nil
	}
	return c.rep
}

type checker struct {
	tr  *trace.Trace
	rep *Report

	sk *vclock.Skeleton
}

// violate records a violation, honouring the per-kind cap.
func (c *checker) violate(k Kind, ev EventPos, peer *EventPos, format string, args ...any) {
	c.rep.Counts[k]++
	if c.rep.Counts[k] > maxPerKind {
		return
	}
	c.rep.Violations = append(c.rep.Violations, Violation{
		Kind: k, Event: ev, Peer: peer, Detail: fmt.Sprintf(format, args...),
	})
}

// pos describes a skeleton event for a report.
func (c *checker) pos(e vclock.Event) EventPos {
	l := &c.tr.Locs[e.Loc]
	return EventPos{
		Loc: e.Loc, Index: e.Index, Rank: l.Rank, Thread: l.Thread,
		Kind: e.Kind.String(), Region: c.regionName(e.Scope), Time: e.Time,
	}
}

func (c *checker) regionName(r trace.RegionID) string {
	if r >= 0 && int(r) < len(c.tr.Regions) {
		return c.tr.Regions[r].Name
	}
	return ""
}

// scan performs the per-location pass: it feeds the skeleton extractor
// and checks timestamp monotonicity, barrier sequence order and
// fork/join placement in event order, then reports the skeleton's
// unbalanced regions.
func (c *checker) scan() {
	x := vclock.NewExtractor(c.tr)
	for _, l := range c.tr.Locs {
		barNext := int32(0)
		var prev EventPos
		havePrev := false
		for _, e := range l.Events {
			p := c.pos(x.Add(e, 0))
			if havePrev {
				if c.rep.Logical && e.Time <= prev.Time {
					pp := prev
					c.violate(KindMonotonic, p, &pp,
						"logical stamp %d does not exceed predecessor %d", e.Time, prev.Time)
				} else if !c.rep.Logical && e.Time < prev.Time {
					pp := prev
					c.violate(KindMonotonic, p, &pp,
						"stamp %d runs backwards from %d", e.Time, prev.Time)
				}
			}
			switch e.Kind {
			case trace.EvBarrier:
				if e.B != barNext {
					c.violate(KindBarrier, p, nil,
						"barrier seq %d observed where seq %d was expected", e.B, barNext)
					barNext = e.B + 1
				} else {
					barNext++
				}
			case trace.EvFork:
				if l.Thread != 0 {
					c.violate(KindForkJoin, p, nil, "fork recorded on worker thread")
				}
			case trace.EvJoin:
				if l.Thread != 0 {
					c.violate(KindForkJoin, p, nil, "join recorded on worker thread")
				}
			}
			prev = p
			havePrev = true
		}
		x.EndLocation()
	}
	c.sk = x.Skeleton()
	for _, a := range c.sk.Anomalies {
		if a.Kind == vclock.UnbalancedExit {
			c.violate(KindUnbalanced, c.pos(a.Event), nil, "exit without matching enter")
		} else {
			c.violate(KindUnbalanced, c.pos(a.Event), nil,
				"%d region(s) never exited before end of stream", a.Open)
		}
	}
}

// checkMessages reports one unmatched-recv violation per receive that
// has no FIFO-matching send, and one orphan-send violation per send
// never consumed (the signature of a dropped receive).
func (c *checker) checkMessages() {
	for i := 0; i < c.sk.Recvs.Len(); i++ {
		if r := c.sk.Recvs.At(i); r.Peer < 0 {
			c.violate(KindUnmatchedRecv, c.pos(r.Record()), nil,
				"no matching send on channel src=%d dst=%d tag=%d", r.A, c.tr.Locs[r.Loc].Rank, r.B)
		}
	}
	for _, i := range c.sk.Orphans {
		s := c.sk.Sends.At(int(i))
		c.violate(KindOrphanSend, c.pos(s.Record()), nil,
			"send to rank %d tag %d never received (dropped receive?)", s.A, s.B)
	}
}

// checkCollectives verifies per-location sequence ordering, full and
// exactly-once participation, and operation-name agreement for every
// collective instance.
func (c *checker) checkCollectives() {
	colls := &c.sk.Colls
	// Communicator membership (every location that ever participates,
	// ascending) and each member's sequence numbers in stream order.
	type commLoc struct {
		comm int32
		loc  int
	}
	seqs := make(map[commLoc][]int32)
	members := make(map[int32][]int)
	var comms []int32
	for i := 0; i < colls.Len(); i++ {
		s := colls.At(i)
		k := commLoc{s.A, s.Loc}
		if _, ok := seqs[k]; !ok {
			if _, ok := members[s.A]; !ok {
				comms = append(comms, s.A)
			}
			members[s.A] = append(members[s.A], s.Loc)
		}
		seqs[k] = append(seqs[k], s.B)
	}
	slices.Sort(comms)
	for _, comm := range comms {
		for _, li := range members[comm] {
			for i, s := range seqs[commLoc{comm, li}] {
				if int32(i) != s {
					c.violate(KindCollOrder, c.findColl(li, comm, s), nil,
						"rank %d observes comm %d instance seq %d at position %d (expected seq %d)",
						c.tr.Locs[li].Rank, comm, s, i, i)
					break
				}
			}
		}
	}
	for _, in := range c.sk.CollIns {
		comm, seq := in.Key, in.Seq
		seen := make(map[int]int)
		for _, m := range in.Members {
			seen[colls.At(int(m)).Loc]++
		}
		first := colls.At(int(in.Members[0]))
		for _, li := range members[comm] {
			switch n := seen[li]; {
			case n == 0:
				c.violate(KindCollParticipant, c.pos(first.Record()), nil,
					"rank %d missing from comm %d collective instance seq %d",
					c.tr.Locs[li].Rank, comm, seq)
			case n > 1:
				c.violate(KindCollParticipant, c.pos(first.Record()), nil,
					"rank %d participates %d times in comm %d instance seq %d",
					c.tr.Locs[li].Rank, n, comm, seq)
			}
		}
		name := c.regionName(first.Scope)
		for _, m := range in.Members[1:] {
			if p := colls.At(int(m)); c.regionName(p.Scope) != name {
				fp := c.pos(first.Record())
				c.violate(KindCollParticipant, c.pos(p.Record()), &fp,
					"operation %q does not match %q on comm %d instance seq %d",
					c.regionName(p.Scope), name, comm, seq)
			}
		}
	}
}

// findColl locates the CollEnd record of (comm, seq) on a location for
// violation reporting.
func (c *checker) findColl(li int, comm, seq int32) EventPos {
	for i := 0; i < c.sk.Colls.Len(); i++ {
		if s := c.sk.Colls.At(i); s.Loc == li && s.A == comm && s.B == seq {
			return c.pos(s.Record())
		}
	}
	l := &c.tr.Locs[li]
	return EventPos{Loc: li, Rank: l.Rank, Thread: l.Thread}
}

// checkBarriers verifies that each OpenMP barrier instance is reached by
// the full team (the per-thread sequence order was checked in-stream by
// the scan).
func (c *checker) checkBarriers() {
	teamSize := make(map[int32]int) // rank -> location count
	for _, l := range c.tr.Locs {
		teamSize[int32(l.Rank)]++
	}
	bars := &c.sk.Bars
	for _, in := range c.sk.BarIns {
		rank, seq := in.Key, in.Seq
		first := bars.At(int(in.Members[0]))
		want := int(first.A) // the team size
		for _, m := range in.Members[1:] {
			p := bars.At(int(m))
			if got := int(p.A); got != want {
				fp := c.pos(first.Record())
				c.violate(KindBarrier, c.pos(p.Record()), &fp,
					"team size %d disagrees with %d for barrier seq %d", got, want, seq)
			}
		}
		if want > teamSize[rank] {
			want = teamSize[rank] // a truncated trace cannot have more locations than recorded
		}
		if n := len(in.Members); n != want {
			c.violate(KindBarrier, c.pos(first.Record()), nil,
				"%d of %d threads reached barrier seq %d on rank %d", n, want, seq, rank)
		}
	}
}

// checkForkJoin verifies strict fork/join alternation with matching
// sequence numbers per rank.
func (c *checker) checkForkJoin() {
	for _, t := range c.sk.Teams {
		forks, joins := &t.Forks, &t.Joins
		for i := 0; i < forks.Len(); i++ {
			if f := forks.At(i); f.B != int32(i) {
				c.violate(KindForkJoin, c.pos(*f), nil,
					"fork seq %d observed where seq %d was expected", f.B, i)
			}
		}
		for i := 0; i < joins.Len(); i++ {
			if j := joins.At(i); j.B != int32(i) {
				c.violate(KindForkJoin, c.pos(*j), nil,
					"join seq %d observed where seq %d was expected", j.B, i)
			}
		}
		nf, nj := forks.Len(), joins.Len()
		switch {
		case nj > nf:
			c.violate(KindForkJoin, c.pos(*joins.At(nf)), nil,
				"join without a preceding fork (%d joins, %d forks)", nj, nf)
		case nf > nj:
			c.violate(KindForkJoin, c.pos(*forks.At(nj)), nil,
				"fork never joined (%d forks, %d joins)", nf, nj)
		}
		for i := 0; i < nf && i < nj; i++ {
			if f, j := forks.At(i), joins.At(i); f.Loc == j.Loc && j.Index < f.Index {
				fp := c.pos(*f)
				c.violate(KindForkJoin, c.pos(*j), &fp,
					"join seq %d precedes its fork in the master stream", i)
			}
		}
	}
}

// checkEdges counts the skeleton's synchronisation edges and, on a
// logical trace, verifies the Lamport clock condition (and the piggyback
// gain) on every one of them, in the order that decides which violations
// are recorded: messages, collective instances by (comm, seq), barrier
// instances by (rank, seq), fork/join.  An instance's all-to-all release
// edges are enumerated here, never stored.
func (c *checker) checkEdges() {
	check := func(from, to vclock.Event) {
		c.rep.Edges++
		if !c.rep.Logical {
			return
		}
		switch {
		case to.Time <= from.Time:
			fp := c.pos(from)
			c.violate(KindClockCondition, c.pos(to), &fp,
				"edge target stamp %d does not exceed source stamp %d", to.Time, from.Time)
		case to.Time == from.Time+1:
			fp := c.pos(from)
			c.violate(KindPiggyback, c.pos(to), &fp,
				"synchronisation gained only one tick (%d -> %d); piggyback apparently not folded in", from.Time, to.Time)
		}
	}
	for i := 0; i < c.sk.Recvs.Len(); i++ {
		if r := c.sk.Recvs.At(i); r.Peer >= 0 {
			check(c.sk.Sends.At(int(r.Peer)).Record(), r.Record())
		}
	}
	c.releaseEdges(&c.sk.Colls, c.sk.CollIns, check)
	c.releaseEdges(&c.sk.Bars, c.sk.BarIns, check)
	c.sk.ForkJoin(check)
}

// releaseEdges enumerates the release edges of collective or barrier
// instances: every member's exit happens after every other location's
// contribution.
func (c *checker) releaseEdges(recs *vclock.Paged[vclock.Sync], ins []vclock.Instance, fn func(from, to vclock.Event)) {
	var src, dst []vclock.Event
	for _, in := range ins {
		src, dst = src[:0], dst[:0]
		for _, m := range in.Members {
			r := recs.At(int(m))
			src = append(src, r.Source())
			dst = append(dst, r.ExitEvent())
		}
		for i := range src {
			for j := range dst {
				if src[i].Loc == dst[j].Loc {
					continue
				}
				fn(src[i], dst[j])
			}
		}
	}
}

// checkCycles walks the skeleton in causal order (vclock.Unreached) on
// every trace, logical or physical: events the walk cannot reach mean
// the synchronisation edges form a cycle, so the trace describes no
// execution.  Happens-before is the transitive closure of program order
// and the edges scan and checkEdges already check one by one, so the
// walk checks no stamps.
func (c *checker) checkCycles() {
	counts := make([]int, len(c.tr.Locs))
	for li, l := range c.tr.Locs {
		counts[li] = len(l.Events)
	}
	edges, groups := c.sk.Graph()
	if n := vclock.Unreached(counts, edges, groups); n > 0 {
		c.violate(KindCycle, wholeTrace, nil,
			"synchronisation cycle or unmatched dependency: %d events unreachable", n)
	}
}
