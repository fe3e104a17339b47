// Package tracecheck is an offline static-analysis pass over recorded
// traces: it reconstructs the true happens-before relation from matched
// sends/receives, collectives, OpenMP barriers and fork/join events —
// the two-phase vector-clock approach of Sulzmann & Stadtmüller
// (arXiv:1807.03585) applied to LTRC traces — and verifies a battery of
// structural invariants against it.
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
//     trace, ts(a) < ts(b); additionally, sampled causally ordered pairs
//     from the full vector-clock relation must satisfy it transitively.
//   - per-location monotonicity: logical stamps strictly increase along
//     each location's stream; physical (tsc) stamps never decrease.
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

func (p EventPos) String() string {
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
	// SampledPairs counts the causally ordered event pairs checked
	// transitively through the vector clocks (0 when the audit was
	// skipped for size).
	SampledPairs int `json:"sampled_pairs"`
	// Counts is the total number of violations per kind, including any
	// past the per-kind recording cap.
	Counts     map[Kind]int `json:"counts,omitempty"`
	Violations []Violation  `json:"violations,omitempty"`
	// ReadErrors lists stream read failures encountered while scanning a
	// (possibly damaged) chunked trace.  The verdict then covers only the
	// events that could be decoded.
	ReadErrors []string `json:"read_errors,omitempty"`
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
	fmt.Fprintf(w, "tracecheck %s (%s): %d locations, %d events, %d sync edges, %d sampled pairs — %s\n",
		r.Clock, mode, r.Locs, r.Events, r.Edges, r.SampledPairs, verdict)
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

// samplesPerLoc is the number of evenly spaced events sampled per
// location for the transitive clock-condition audit.
const samplesPerLoc = 4

// maxFrontierCells bounds the vectors the audit's replay holds — one
// running vector per location with events plus one per sampled event,
// each of one cell per location — so that a trace claiming thousands of
// near-empty locations cannot size a huge allocation.  Real traces stay
// far below it: 256 locations need 327,680 cells.
const maxFrontierCells = 50 << 20

// Options tunes a verification run.  The zero value is the default.
type Options struct {
	// MaxPerKind caps the violations recorded per kind; the totals in
	// Report.Counts keep counting past it.  0 means 100.
	MaxPerKind int
	// Partial verifies a still-growing prefix of a trace (the sealed
	// view of a live tail, trace.Follow): only prefix-closed invariants
	// are checked, so a clean run never reports violations mid-stream
	// that its complete trace would not.  Suppressed because the rest of
	// the trace may still legitimately arrive: regions still open at end
	// of stream, sends not yet received, receives whose send's location
	// is sealed less far along, collective/barrier instances and forks
	// whose remaining participants are still running, release edges
	// whose closing Exit has not been recorded, and the vector-clock
	// audit (which needs the complete trace).  Everything prefix-closed
	// still applies: nesting errors, timestamp monotonicity, FIFO
	// matching of the pairs already on disk, sequence ordering, the
	// clock condition and piggyback gain on every reconstructed edge.
	Partial bool
}

func (o Options) fill() Options {
	if o.MaxPerKind == 0 {
		o.MaxPerKind = 100
	}
	return o
}

// Logical reports whether a clock name denotes a logical (Lamport-style,
// piggyback-synchronised) mode, for which the strict invariants apply.
func Logical(clock string) bool { return strings.HasPrefix(clock, "lt_") }

// Verify runs every invariant check against the trace and returns the
// report.  It never fails: structural problems (unmatched receives,
// broken nesting, causality cycles) become violations, so a partially
// corrupted trace still yields a maximally informative report.  Verify
// is VerifyStream over the in-memory trace, so their reports are
// identical.
func Verify(tr *trace.Trace, opt Options) *Report {
	return VerifyStream(trace.StreamTrace(tr), opt)
}

// VerifyStream runs the invariant checks against a trace stream.  The
// per-location pass consumes one cursor at a time and keeps only the
// synchronisation skeleton (sends, receives, collective/barrier/fork
// records, the reconstructed edges and the sampled events) in memory,
// and the vector-clock audit replays that skeleton alone, so verifying
// a chunked on-disk trace is bounded by its communication volume, not
// its event count.
func VerifyStream(st *trace.Stream, opt Options) *Report {
	opt = opt.fill()
	c := &checker{
		st:  st,
		opt: opt,
		rep: &Report{
			Clock:   st.Clock,
			Logical: Logical(st.Clock),
			Locs:    st.NumLocs(),
			Events:  st.NumEvents(),
			Counts:  make(map[Kind]int),
		},
	}
	c.scan()
	c.matchMessages()
	c.checkCollectives()
	c.checkBarriers()
	c.checkForkJoin()
	c.checkEdges()
	c.vectorAudit()
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

type chanKey struct{ src, dst, tag int32 }

// exitRef is the lazily resolved far end of a release edge: the Exit
// event closing the region that encloses a collective or barrier
// record.  The scan attaches one to the region stack and fills it in
// when that frame pops (or with the location's last event if the
// region never closes — the old whole-trace exitAfter default; such a
// default is marked provisional so a Partial verification can skip
// edges whose real target has not been recorded yet).
type exitRef struct {
	pos         EventPos
	provisional bool
}

// collPart is one location's participation in a collective or barrier
// instance, with every event attribute the later passes need captured
// as the scan streamed past it.
type collPart struct {
	pos      EventPos // the Coll/Barrier record itself
	enterPos EventPos // enclosing Enter (edge source for collectives)
	exit     *exitRef // exit closing the enclosing region (edge target)
	name     string   // operation (enclosing region) name
	team     int32    // Barrier team size
}

// forkRec is one Fork or Join record with its sequence number.
type forkRec struct {
	seq int32
	pos EventPos
}

type recvRec struct {
	pos EventPos
	key chanKey
}

// collSeqRec is one CollEnd observation in a location's stream order,
// for the per-location sequence check and violation reporting.
type collSeqRec struct {
	comm, seq int32
	pos       EventPos
}

// segment is one top-level region segment of a worker location's
// stream, precomputed by the scan with the same recurrence the
// fork/join worker-cursor reconstruction used on the whole trace.
type segment struct{ start, end EventPos }

// edgeRec is a reconstructed synchronisation edge.  Its endpoints point
// at positions (and thus timestamps) the scan captured, which stay put
// once the scan is done.
type edgeRec struct{ from, to *EventPos }

type checker struct {
	st  *trace.Stream
	opt Options
	rep *Report

	sends    map[chanKey][]EventPos
	recvs    []recvRec               // global stream order (locations ascending)
	colls    map[[2]int32][]collPart // (comm, seq)
	bars     map[[2]int32][]collPart // (rank, seq)
	forks    map[int32][]forkRec     // rank -> forks in stream order
	joins    map[int32][]forkRec     // rank -> joins in stream order
	collSeqs [][]collSeqRec          // per location, stream order
	segs     [][]segment             // per worker location
	samples  [][]EventPos            // per location, the audit's sampled events

	// The reconstructed synchronisation edges, in enumeration order:
	// messages, collective instances by (comm, seq), barrier instances
	// by (rank, seq), then fork/join.  An instance keeps its members;
	// its all-to-all release edges are enumerated on demand.
	msgEdges []edgeRec
	collInst [][]collPart
	barInst  [][]collPart
	fjEdges  []edgeRec
}

// violate records a violation, honouring the per-kind cap.
func (c *checker) violate(k Kind, ev EventPos, peer *EventPos, format string, args ...any) {
	c.rep.Counts[k]++
	if c.rep.Counts[k] > c.opt.MaxPerKind {
		return
	}
	c.rep.Violations = append(c.rep.Violations, Violation{
		Kind: k, Event: ev, Peer: peer, Detail: fmt.Sprintf(format, args...),
	})
}

// scanFrame is one region-stack entry during the streaming scan.
type scanFrame struct {
	region trace.RegionID
	pos    EventPos // the Enter record
}

// scan performs the per-location streaming pass: region nesting,
// timestamp monotonicity, barrier sequence order, worker segment
// reconstruction, and collection of every synchronisation record with
// its edge endpoints resolved in-stream.
func (c *checker) scan() {
	nloc := c.st.NumLocs()
	c.sends = make(map[chanKey][]EventPos)
	c.colls = make(map[[2]int32][]collPart)
	c.bars = make(map[[2]int32][]collPart)
	c.forks = make(map[int32][]forkRec)
	c.joins = make(map[int32][]forkRec)
	c.collSeqs = make([][]collSeqRec, nloc)
	c.segs = make([][]segment, nloc)
	c.samples = make([][]EventPos, nloc)
	audit := c.rep.Logical && !c.opt.Partial

	var stack []scanFrame
	var pending [][]*exitRef // by stack depth at attach time
	for li := 0; li < nloc; li++ {
		l := c.st.Loc(li)
		worker := l.Thread != 0
		stack = stack[:0]
		for d := range pending {
			pending[d] = pending[d][:0]
		}
		var open []*exitRef
		attach := func(er *exitRef) {
			d := len(stack)
			for len(pending) <= d {
				pending = append(pending, nil)
			}
			pending[d] = append(pending[d], er)
			open = append(open, er)
		}

		barNext := int32(0)
		var prev EventPos
		havePrev := false
		// Worker segment recurrence (the old regionEnd walk): a segment
		// runs until the depth counter returns to zero on an Exit.
		segDepth := 0
		segOpen := false
		var segStart EventPos

		var sampleAt []int
		if audit {
			sampleAt = sampleIndices(l.Events)
		}
		cur := c.st.Cursor(li)
		ei := 0
		for e, ok := cur.Next(); ok; e, ok = cur.Next() {
			p := EventPos{
				Loc: li, Index: ei, Rank: l.Rank, Thread: l.Thread,
				Kind: e.Kind.String(), Time: e.Time,
			}
			if n := len(stack); n > 0 {
				if reg := stack[n-1].region; reg >= 0 && int(reg) < len(c.st.Regions) {
					p.Region = c.st.Regions[reg].Name
				}
			}
			if len(sampleAt) > 0 && sampleAt[0] == ei {
				c.samples[li] = append(c.samples[li], p)
				sampleAt = sampleAt[1:]
			}
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
			case trace.EvEnter:
				stack = append(stack, scanFrame{region: e.Region, pos: p})
			case trace.EvExit:
				if d := len(stack); d < len(pending) {
					for _, er := range pending[d] {
						er.pos = p
					}
					pending[d] = pending[d][:0]
				}
				if len(stack) == 0 {
					c.violate(KindUnbalanced, p, nil, "exit without matching enter")
				} else {
					stack = stack[:len(stack)-1]
				}
			case trace.EvSend:
				k := chanKey{int32(l.Rank), e.A, e.B}
				c.sends[k] = append(c.sends[k], p)
			case trace.EvRecv:
				c.recvs = append(c.recvs, recvRec{pos: p, key: chanKey{e.A, int32(l.Rank), e.B}})
			case trace.EvCollEnd:
				enter := p
				if n := len(stack); n > 0 {
					enter = stack[n-1].pos
				}
				er := &exitRef{}
				attach(er)
				key := [2]int32{e.A, e.B}
				c.colls[key] = append(c.colls[key], collPart{
					pos: p, enterPos: enter, exit: er, name: p.Region,
				})
				c.collSeqs[li] = append(c.collSeqs[li], collSeqRec{comm: e.A, seq: e.B, pos: p})
			case trace.EvBarrier:
				if e.B != barNext {
					c.violate(KindBarrier, p, nil,
						"barrier seq %d observed where seq %d was expected", e.B, barNext)
					barNext = e.B + 1
				} else {
					barNext++
				}
				er := &exitRef{}
				attach(er)
				key := [2]int32{int32(l.Rank), e.B}
				parts := c.bars[key]
				if parts == nil {
					parts = make([]collPart, 0, min(max(int(e.A), 1), nloc)) // the team size
				}
				c.bars[key] = append(parts, collPart{
					pos: p, enterPos: p, exit: er, name: p.Region, team: e.A,
				})
			case trace.EvFork:
				if l.Thread != 0 {
					c.violate(KindForkJoin, p, nil, "fork recorded on worker thread")
				}
				c.forks[int32(l.Rank)] = append(c.forks[int32(l.Rank)], forkRec{seq: e.B, pos: p})
			case trace.EvJoin:
				if l.Thread != 0 {
					c.violate(KindForkJoin, p, nil, "join recorded on worker thread")
				}
				c.joins[int32(l.Rank)] = append(c.joins[int32(l.Rank)], forkRec{seq: e.B, pos: p})
			}

			if worker {
				if !segOpen {
					segStart = p
					segOpen = true
				}
				switch e.Kind {
				case trace.EvEnter:
					segDepth++
				case trace.EvExit:
					segDepth--
					if segDepth == 0 {
						c.segs[li] = append(c.segs[li], segment{start: segStart, end: p})
						segOpen = false
					}
				}
			}

			prev = p
			havePrev = true
			ei++
		}
		if err := cur.Err(); err != nil {
			c.rep.ReadErrors = append(c.rep.ReadErrors, fmt.Sprintf("location %d: %v", li, err))
		}
		// Unresolved release edges default to the location's last event,
		// like the whole-trace exitAfter did.
		for _, er := range open {
			if er.pos.Kind == "" {
				er.pos = prev
				er.provisional = true
			}
		}
		if worker && segOpen {
			c.segs[li] = append(c.segs[li], segment{start: segStart, end: prev})
		}
		if len(stack) > 0 && !c.opt.Partial {
			c.violate(KindUnbalanced, stack[len(stack)-1].pos, nil,
				"%d region(s) never exited before end of stream", len(stack))
		}
	}
}

// matchMessages pairs receives with sends FIFO per (src, dst, tag)
// channel, emitting one edge per matched pair, one unmatched-recv
// violation per receive that has no send, and one orphan-send violation
// per send never consumed (the signature of a dropped receive).
func (c *checker) matchMessages() {
	pending := make(map[chanKey][]EventPos, len(c.sends))
	for k, v := range c.sends {
		pending[k] = v
	}
	for i := range c.recvs {
		r := &c.recvs[i]
		q := pending[r.key]
		if len(q) == 0 {
			// On a prefix, the sender's location may simply be sealed
			// less far along than the receiver's.
			if !c.opt.Partial {
				c.violate(KindUnmatchedRecv, r.pos, nil,
					"no matching send on channel src=%d dst=%d tag=%d", r.key.src, r.key.dst, r.key.tag)
			}
			continue
		}
		c.msgEdges = append(c.msgEdges, edgeRec{from: &q[0], to: &r.pos})
		pending[r.key] = q[1:]
	}
	keys := make([]chanKey, 0, len(pending))
	for k := range pending {
		if len(pending[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	if c.opt.Partial {
		return // unconsumed sends may still be received
	}
	for _, k := range keys {
		for _, s := range pending[k] {
			c.violate(KindOrphanSend, s, nil,
				"send to rank %d tag %d never received (dropped receive?)", k.dst, k.tag)
		}
	}
}

// checkCollectives verifies per-location sequence ordering, full and
// exactly-once participation, and operation-name agreement for every
// collective instance, then records the instance for its release edges.
func (c *checker) checkCollectives() {
	keys := sortedKeys2(c.colls)
	// Communicator membership: every location that ever participates.
	members := make(map[int32]map[int]bool)
	perLocSeqs := make(map[int32]map[int][]int32) // comm -> loc -> seqs in stream order
	for _, k := range keys {
		comm := k[0]
		if members[comm] == nil {
			members[comm] = make(map[int]bool)
			perLocSeqs[comm] = make(map[int][]int32)
		}
		for _, p := range c.colls[k] {
			members[comm][p.pos.Loc] = true
		}
	}
	for li := range c.collSeqs {
		for _, r := range c.collSeqs[li] {
			perLocSeqs[r.comm][li] = append(perLocSeqs[r.comm][li], r.seq)
		}
	}
	comms := make([]int32, 0, len(members))
	for comm := range members {
		comms = append(comms, comm)
	}
	sort.Slice(comms, func(i, j int) bool { return comms[i] < comms[j] })
	for _, comm := range comms {
		locs := sortedInts(members[comm])
		for _, li := range locs {
			seqs := perLocSeqs[comm][li]
			for i, s := range seqs {
				if int32(i) != s {
					pos := c.findColl(li, comm, s)
					c.violate(KindCollOrder, pos, nil,
						"rank %d observes comm %d instance seq %d at position %d (expected seq %d)",
						c.st.Loc(li).Rank, comm, s, i, i)
					break
				}
			}
		}
	}
	for _, k := range keys {
		comm, seq := k[0], k[1]
		parts := c.colls[k]
		seen := make(map[int]int)
		for _, p := range parts {
			seen[p.pos.Loc]++
		}
		first := parts[0]
		for _, li := range sortedInts(members[comm]) {
			switch n := seen[li]; {
			case n == 0:
				if c.opt.Partial {
					continue // the rank may not have reached the instance yet
				}
				c.violate(KindCollParticipant, first.pos, nil,
					"rank %d missing from comm %d collective instance seq %d",
					c.st.Loc(li).Rank, comm, seq)
			case n > 1:
				c.violate(KindCollParticipant, first.pos, nil,
					"rank %d participates %d times in comm %d instance seq %d",
					c.st.Loc(li).Rank, n, comm, seq)
			}
		}
		for _, p := range parts[1:] {
			if p.name != first.name {
				fp := first.pos
				c.violate(KindCollParticipant, p.pos, &fp,
					"operation %q does not match %q on comm %d instance seq %d",
					p.name, first.name, comm, seq)
			}
		}
		c.collInst = append(c.collInst, parts)
	}
}

// findColl locates the CollEnd record of (comm, seq) on a location for
// violation reporting.
func (c *checker) findColl(li int, comm, seq int32) EventPos {
	for _, r := range c.collSeqs[li] {
		if r.comm == comm && r.seq == seq {
			return r.pos
		}
	}
	l := c.st.Loc(li)
	return EventPos{Loc: li, Rank: l.Rank, Thread: l.Thread}
}

// releaseEdges enumerates the release edges of one collective or
// barrier instance: every participant's exit happens after every other
// location's contribution.
func (c *checker) releaseEdges(parts []collPart, fn func(from, to *EventPos)) {
	for i := range parts {
		for j := range parts {
			a, b := &parts[i], &parts[j]
			if a.pos.Loc == b.pos.Loc {
				continue
			}
			if c.opt.Partial && b.exit.provisional {
				continue // the releasing Exit is not on disk yet
			}
			fn(&a.enterPos, &b.exit.pos)
		}
	}
}

// checkBarriers verifies that each OpenMP barrier instance is reached by
// the full team (the per-thread sequence order was checked in-stream by
// the scan), then records the instance for its release edges.
func (c *checker) checkBarriers() {
	teamSize := make(map[int32]int) // rank -> location count
	for i := 0; i < c.st.NumLocs(); i++ {
		teamSize[int32(c.st.Loc(i).Rank)]++
	}
	for _, k := range sortedKeys2(c.bars) {
		rank, seq := k[0], k[1]
		parts := c.bars[k]
		want := int(parts[0].team)
		for _, p := range parts[1:] {
			if got := int(p.team); got != want {
				fp := parts[0].pos
				c.violate(KindBarrier, p.pos, &fp,
					"team size %d disagrees with %d for barrier seq %d", got, want, seq)
			}
		}
		if want > teamSize[rank] {
			want = teamSize[rank] // a truncated trace cannot have more locations than recorded
		}
		if len(parts) != want && !(c.opt.Partial && len(parts) < want) {
			c.violate(KindBarrier, parts[0].pos, nil,
				"%d of %d threads reached barrier seq %d on rank %d", len(parts), want, seq, rank)
		}
		c.barInst = append(c.barInst, parts)
	}
}

// checkForkJoin verifies strict fork/join alternation with matching
// sequence numbers per rank and emits the fork and join edges by
// consuming each worker's precomputed top-level region segments (a
// worker only has events inside parallel regions, so its next
// unclaimed segment belongs to the next fork).
func (c *checker) checkForkJoin() {
	ranks := make([]int32, 0, len(c.forks))
	seen := make(map[int32]bool)
	for r := range c.forks {
		ranks = append(ranks, r)
		seen[r] = true
	}
	for r := range c.joins {
		if !seen[r] {
			ranks = append(ranks, r)
		}
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })

	workers := make(map[int32][]int) // rank -> worker locations
	for li := 0; li < c.st.NumLocs(); li++ {
		if l := c.st.Loc(li); l.Thread != 0 {
			workers[int32(l.Rank)] = append(workers[int32(l.Rank)], li)
		}
	}
	segIdx := make([]int, c.st.NumLocs())
	for _, rank := range ranks {
		forks, joins := c.forks[rank], c.joins[rank]
		// Alternation and sequence checks on the master stream.
		for i, f := range forks {
			if f.seq != int32(i) {
				c.violate(KindForkJoin, f.pos, nil,
					"fork seq %d observed where seq %d was expected", f.seq, i)
			}
		}
		for i, j := range joins {
			if j.seq != int32(i) {
				c.violate(KindForkJoin, j.pos, nil,
					"join seq %d observed where seq %d was expected", j.seq, i)
			}
		}
		switch {
		case len(joins) > len(forks):
			j := joins[len(forks)]
			c.violate(KindForkJoin, j.pos, nil,
				"join without a preceding fork (%d joins, %d forks)", len(joins), len(forks))
		case len(forks) > len(joins) && !c.opt.Partial:
			f := forks[len(joins)]
			c.violate(KindForkJoin, f.pos, nil,
				"fork never joined (%d forks, %d joins)", len(forks), len(joins))
		}
		for i := 0; i < len(forks) && i < len(joins); i++ {
			if forks[i].pos.Loc == joins[i].pos.Loc && joins[i].pos.Index < forks[i].pos.Index {
				fp := forks[i].pos
				c.violate(KindForkJoin, joins[i].pos, &fp,
					"join seq %d precedes its fork in the master stream", i)
			}
		}
		// Edges, processing forks in sequence order.
		for i := range forks {
			for _, li := range workers[rank] {
				if segIdx[li] < len(c.segs[li]) {
					c.fjEdges = append(c.fjEdges, edgeRec{from: &forks[i].pos, to: &c.segs[li][segIdx[li]].start})
					segIdx[li]++
				}
			}
			if i < len(joins) {
				for _, li := range workers[rank] {
					if n := segIdx[li]; n > 0 {
						c.fjEdges = append(c.fjEdges, edgeRec{from: &c.segs[li][n-1].end, to: &joins[i].pos})
					}
				}
			}
		}
	}
}

// checkEdges counts the reconstructed synchronisation edges and, on a
// logical trace, verifies the Lamport clock condition (and the piggyback
// gain) on every one of them, in the order that decides which
// violations are recorded: messages, collective instances, barrier
// instances, fork/join.
func (c *checker) checkEdges() {
	check := func(from, to *EventPos) {
		c.rep.Edges++
		if !c.rep.Logical {
			return
		}
		switch {
		case to.Time <= from.Time:
			fp := *from
			c.violate(KindClockCondition, *to, &fp,
				"edge target stamp %d does not exceed source stamp %d", to.Time, from.Time)
		case to.Time == from.Time+1:
			fp := *from
			c.violate(KindPiggyback, *to, &fp,
				"synchronisation gained only one tick (%d -> %d); piggyback apparently not folded in", from.Time, to.Time)
		}
	}
	for _, e := range c.msgEdges {
		check(e.from, e.to)
	}
	for _, parts := range c.collInst {
		c.releaseEdges(parts, check)
	}
	for _, parts := range c.barInst {
		c.releaseEdges(parts, check)
	}
	for _, e := range c.fjEdges {
		check(e.from, e.to)
	}
}

// sampleIndices returns the audit's evenly spaced sample positions on a
// location of n events.
func sampleIndices(n int) []int {
	k := min(samplesPerLoc, n)
	step := max(k-1, 1)
	out := make([]int, k)
	for i := range out {
		out[i] = i * (n - 1) / step
	}
	return out
}

func ref(p *EventPos) vclock.EventRef { return vclock.EventRef{Loc: p.Loc, Index: p.Index} }

// vectorAudit replays the synchronisation skeleton through vector
// clocks (which also exposes causality cycles) and checks the clock
// condition transitively on sampled event pairs — the belt-and-braces
// pass that would catch an edge set too weak to imply the full
// happens-before relation.  The replay visits only the skeleton and
// keeps only the sampled events' vectors, so the audit never needs the
// trace itself; the scan captured the samples' positions.
func (c *checker) vectorAudit() {
	if c.opt.Partial {
		return // the transitive audit needs the complete trace
	}
	if len(c.rep.ReadErrors) > 0 {
		return // the damaged stream's skeleton is incomplete
	}
	counts := make([]int, c.st.NumLocs())
	vectors := 0
	for li := range counts {
		counts[li] = c.st.Loc(li).Events
		if counts[li] > 0 {
			vectors += 1 + len(c.samples[li])
		}
	}
	if vectors*len(counts) > maxFrontierCells {
		return
	}
	edges := make([]vclock.Edge, 0, len(c.msgEdges)+len(c.fjEdges))
	for _, es := range [][]edgeRec{c.msgEdges, c.fjEdges} {
		for _, e := range es {
			edges = append(edges, vclock.Edge{From: ref(e.from), To: ref(e.to)})
		}
	}
	groups := make([][]vclock.Member, 0, len(c.collInst)+len(c.barInst))
	for _, insts := range [][][]collPart{c.collInst, c.barInst} {
		for _, parts := range insts {
			g := make([]vclock.Member, len(parts))
			for i := range parts {
				g[i] = vclock.Member{Enter: ref(&parts[i].enterPos), Exit: ref(&parts[i].exit.pos)}
			}
			groups = append(groups, g)
		}
	}
	var keep []vclock.EventRef
	for _, ps := range c.samples {
		for i := range ps {
			keep = append(keep, ref(&ps[i]))
		}
	}
	clocks, err := vclock.ComputeFromEdges(counts, edges, groups, keep)
	if err != nil {
		c.violate(KindCycle, EventPos{Loc: -1, Index: -1}, nil,
			"vector-clock replay failed: %v", err)
		return
	}
	if !c.rep.Logical {
		return
	}
	for la, as := range c.samples {
		for lb, bs := range c.samples {
			if la == lb {
				continue
			}
			for i := range as {
				for j := range bs {
					a, b := &as[i], &bs[j]
					c.rep.SampledPairs++
					if a.Time >= b.Time && clocks.HappensBefore(ref(a), ref(b)) {
						pa := *a
						c.violate(KindClockCondition, *b, &pa,
							"transitively ordered pair has stamps %d -> %d", a.Time, b.Time)
					}
				}
			}
		}
	}
}

func sortedKeys2(m map[[2]int32][]collPart) [][2]int32 {
	keys := make([][2]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
