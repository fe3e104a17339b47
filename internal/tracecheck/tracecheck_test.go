package tracecheck

import (
	"encoding/json"
	"maps"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

// builder accumulates hand-built traces for the golden-violation suite.
type builder struct {
	tr   *trace.Trace
	main trace.RegionID
}

func newBuilder(clock string) *builder {
	b := &builder{tr: trace.New(clock)}
	b.main = b.tr.Region("main", trace.RoleUser)
	return b
}

func (b *builder) loc(rank, thread int) int { return b.tr.AddLocation(rank, thread) }

func (b *builder) ev(loc int, kind trace.EvKind, t uint64, region string, role trace.Role, a, bb int32, cc int64) {
	reg := b.main
	if region != "" {
		reg = b.tr.Region(region, role)
	}
	b.tr.Record(loc, trace.Event{Kind: kind, Time: t, Region: reg, A: a, B: bb, C: cc})
}

// messageTrace builds a minimal clean two-rank logical trace: rank 0
// sends one message to rank 1 under tag 7.  Every derived golden trace
// perturbs exactly one aspect of it.
func messageTrace() *builder {
	b := newBuilder("lt_stmt")
	l0 := b.loc(0, 0)
	l1 := b.loc(1, 0)
	// rank 0: enter main, enter MPI_Send, Send(pb=3), exit, exit.
	b.ev(l0, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
	b.ev(l0, trace.EvEnter, 2, "MPI_Send", trace.RoleMPIP2P, 0, 0, 0)
	b.ev(l0, trace.EvSend, 3, "MPI_Send", trace.RoleMPIP2P, 1, 7, 64)
	b.ev(l0, trace.EvExit, 4, "MPI_Send", trace.RoleMPIP2P, 0, 0, 0)
	b.ev(l0, trace.EvExit, 5, "main", trace.RoleUser, 0, 0, 0)
	// rank 1: enter main, enter MPI_Recv, Recv (stamp folds pb+1 and
	// adds its own tick: 3+2=5 at minimum), exit, exit.
	b.ev(l1, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
	b.ev(l1, trace.EvEnter, 2, "MPI_Recv", trace.RoleMPIP2P, 0, 0, 0)
	b.ev(l1, trace.EvRecv, 6, "MPI_Recv", trace.RoleMPIP2P, 0, 7, 64)
	b.ev(l1, trace.EvExit, 7, "MPI_Recv", trace.RoleMPIP2P, 0, 0, 0)
	b.ev(l1, trace.EvExit, 8, "main", trace.RoleUser, 0, 0, 0)
	return b
}

// ompTrace builds a clean fork/join + barrier trace: one rank, a master
// and one worker thread, one parallel region with one barrier.
func ompTrace() *builder {
	b := newBuilder("lt_bb")
	m := b.loc(0, 0)
	w := b.loc(0, 1)
	b.ev(m, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
	b.ev(m, trace.EvFork, 2, "", trace.RoleUser, 2, 0, 0)
	b.ev(m, trace.EvEnter, 3, "!$omp parallel", trace.RoleOmpParallel, 0, 0, 0)
	b.ev(m, trace.EvEnter, 4, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(m, trace.EvBarrier, 5, "!$omp ibarrier", trace.RoleOmpBarrier, 2, 0, 0)
	b.ev(m, trace.EvExit, 9, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(m, trace.EvExit, 10, "!$omp parallel", trace.RoleOmpParallel, 0, 0, 0)
	b.ev(m, trace.EvJoin, 20, "", trace.RoleUser, 0, 0, 0)
	b.ev(m, trace.EvExit, 25, "main", trace.RoleUser, 0, 0, 0)
	// Worker: first event must trail the fork by >= 2 (piggyback fold).
	b.ev(w, trace.EvEnter, 4, "main", trace.RoleUser, 0, 0, 0)
	b.ev(w, trace.EvEnter, 5, "!$omp parallel", trace.RoleOmpParallel, 0, 0, 0)
	b.ev(w, trace.EvEnter, 6, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(w, trace.EvBarrier, 7, "!$omp ibarrier", trace.RoleOmpBarrier, 2, 0, 0)
	b.ev(w, trace.EvExit, 10, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(w, trace.EvExit, 11, "!$omp parallel", trace.RoleOmpParallel, 0, 0, 0)
	b.ev(w, trace.EvExit, 12, "main", trace.RoleUser, 0, 0, 0)
	return b
}

func kinds(r *Report) map[Kind]int { return r.Counts }

func expectOnly(t *testing.T, r *Report, want Kind) {
	t.Helper()
	if r.OK() {
		t.Fatalf("expected %s violation, got clean report", want)
	}
	for k := range r.Counts {
		if k != want {
			t.Errorf("unexpected violation kind %s (%d): %v", k, r.Counts[k], r.Violations)
		}
	}
	if r.Counts[want] == 0 {
		t.Fatalf("expected %s violation, got %v", want, r.Counts)
	}
}

func TestCleanMessageTrace(t *testing.T) {
	r := Verify(messageTrace().tr, Options{})
	if !r.OK() {
		t.Fatalf("clean message trace not clean: %v", r.Violations)
	}
	if r.Edges != 1 {
		t.Fatalf("expected 1 message edge, got %d", r.Edges)
	}
}

func TestCleanOmpTrace(t *testing.T) {
	r := Verify(ompTrace().tr, Options{})
	if !r.OK() {
		t.Fatalf("clean omp trace not clean: %v", r.Violations)
	}
	// fork, join, and 2 barrier release edges.
	if r.Edges != 4 {
		t.Fatalf("expected 4 edges (fork+join+2 barrier), got %d", r.Edges)
	}
}

// TestDroppedRecv removes the receive: the orphaned send must be called
// out as a dropped receive.
func TestDroppedRecv(t *testing.T) {
	b := messageTrace()
	l1 := &b.tr.Locs[1]
	events := l1.Events[:0]
	for _, e := range l1.Events {
		if e.Kind != trace.EvRecv {
			events = append(events, e)
		}
	}
	l1.Events = events
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindOrphanSend)
	v := r.Violations[0]
	if v.Event.Rank != 0 || v.Event.Kind != "SEND" {
		t.Fatalf("orphan-send should point at rank 0's SEND record, got %+v", v.Event)
	}
	if !strings.Contains(v.Detail, "never received") {
		t.Fatalf("detail %q should explain the dropped receive", v.Detail)
	}
}

// TestUnmatchedRecv removes the send instead.
func TestUnmatchedRecv(t *testing.T) {
	b := messageTrace()
	l0 := &b.tr.Locs[0]
	events := l0.Events[:0]
	for _, e := range l0.Events {
		if e.Kind != trace.EvSend {
			events = append(events, e)
		}
	}
	l0.Events = events
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindUnmatchedRecv)
	v := r.Violations[0]
	if v.Event.Rank != 1 || v.Event.Kind != "RECV" {
		t.Fatalf("unmatched-recv should point at rank 1's RECV record, got %+v", v.Event)
	}
}

// TestReorderedCollective records a rank's collective instances out of
// sequence order.
func TestReorderedCollective(t *testing.T) {
	b := newBuilder("lt_1")
	l0 := b.loc(0, 0)
	b.ev(l0, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
	// Two MPI_Allreduce instances on comm 0, recorded seq 1 then seq 0.
	b.ev(l0, trace.EvEnter, 2, "MPI_Allreduce", trace.RoleMPIColl, 0, 0, 0)
	b.ev(l0, trace.EvCollEnd, 3, "MPI_Allreduce", trace.RoleMPIColl, 0, 1, 8)
	b.ev(l0, trace.EvExit, 4, "MPI_Allreduce", trace.RoleMPIColl, 0, 0, 0)
	b.ev(l0, trace.EvEnter, 5, "MPI_Allreduce", trace.RoleMPIColl, 0, 0, 0)
	b.ev(l0, trace.EvCollEnd, 6, "MPI_Allreduce", trace.RoleMPIColl, 0, 0, 8)
	b.ev(l0, trace.EvExit, 7, "MPI_Allreduce", trace.RoleMPIColl, 0, 0, 0)
	b.ev(l0, trace.EvExit, 8, "main", trace.RoleUser, 0, 0, 0)
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindCollOrder)
	v := r.Violations[0]
	if !strings.Contains(v.Detail, "seq 1 at position 0") {
		t.Fatalf("detail %q should name the out-of-order instance", v.Detail)
	}
}

// TestMissingCollectiveParticipant drops one rank from the second of two
// collective instances.
func TestMissingCollectiveParticipant(t *testing.T) {
	b := newBuilder("lt_1")
	l0 := b.loc(0, 0)
	l1 := b.loc(1, 0)
	for _, l := range []int{l0, l1} {
		b.ev(l, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
		b.ev(l, trace.EvEnter, 2, "MPI_Allreduce", trace.RoleMPIColl, 0, 0, 0)
		b.ev(l, trace.EvCollEnd, 5, "MPI_Allreduce", trace.RoleMPIColl, 0, 0, 8)
		b.ev(l, trace.EvExit, 6, "MPI_Allreduce", trace.RoleMPIColl, 0, 0, 0)
	}
	// Only rank 0 joins instance seq 1.
	b.ev(l0, trace.EvEnter, 7, "MPI_Allreduce", trace.RoleMPIColl, 0, 0, 0)
	b.ev(l0, trace.EvCollEnd, 8, "MPI_Allreduce", trace.RoleMPIColl, 0, 1, 8)
	b.ev(l0, trace.EvExit, 9, "MPI_Allreduce", trace.RoleMPIColl, 0, 0, 0)
	b.ev(l0, trace.EvExit, 10, "main", trace.RoleUser, 0, 0, 0)
	b.ev(l1, trace.EvExit, 7, "main", trace.RoleUser, 0, 0, 0)
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindCollParticipant)
	if !strings.Contains(r.Violations[0].Detail, "rank 1 missing") {
		t.Fatalf("detail %q should name the missing rank", r.Violations[0].Detail)
	}
}

// TestNonmonotonicTimestamp lowers one stamp below its predecessor.
func TestNonmonotonicTimestamp(t *testing.T) {
	b := messageTrace()
	b.tr.Locs[0].Events[3].Time = 2 // exit MPI_Send: was 4, predecessor is 3
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindMonotonic)
	v := r.Violations[0]
	if v.Event.Loc != 0 || v.Event.Index != 3 {
		t.Fatalf("monotonicity violation should point at loc 0 event 3, got %+v", v.Event)
	}
	if v.Peer == nil || v.Peer.Index != 2 {
		t.Fatalf("peer should be the predecessor event, got %+v", v.Peer)
	}
}

// TestEqualTimestampIsViolationForLogical: logical stamps must strictly
// increase; a repeated stamp is already a breach.
func TestEqualTimestampIsViolationForLogical(t *testing.T) {
	b := messageTrace()
	b.tr.Locs[0].Events[3].Time = 3
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindMonotonic)
}

// TestTscAllowsEqualStamps: the physical clock clamps rather than
// strictly increases, so equal stamps are fine and the clock condition
// is not asserted at all.
func TestTscAllowsEqualStamps(t *testing.T) {
	b := messageTrace()
	b.tr.Clock = "tsc"
	b.tr.Locs[0].Events[3].Time = 3
	// A tsc receive may even be stamped before its send (unsynchronised
	// node clocks) without tripping the checker.
	b.tr.Locs[1].Events[2].Time = 2
	b.tr.Locs[1].Events[3].Time = 2
	b.tr.Locs[1].Events[4].Time = 2
	r := Verify(b.tr, Options{})
	if !r.OK() {
		t.Fatalf("tsc trace should pass structural checks only: %v", r.Violations)
	}
	if r.Logical {
		t.Fatalf("tsc must not be classified as logical")
	}
}

// TestClockConditionBreach stamps the receive at the send's own stamp:
// the direct edge check must flag it.
func TestClockConditionBreach(t *testing.T) {
	b := messageTrace()
	b.tr.Locs[1].Events[2].Time = 3 // == send stamp
	b.tr.Locs[1].Events[3].Time = 4
	b.tr.Locs[1].Events[4].Time = 5
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindClockCondition)
	v := r.Violations[0]
	if v.Event.Kind != "RECV" || v.Peer == nil || v.Peer.Kind != "SEND" {
		t.Fatalf("violation should link RECV to its SEND, got %+v", v)
	}
}

// TestPiggybackNotFolded stamps the receive exactly one past the send:
// the clock condition holds, but the +1 gain proves the piggyback fold
// was skipped (counter should land at pb+1 and then stamp past it).
func TestPiggybackNotFolded(t *testing.T) {
	b := messageTrace()
	b.tr.Locs[1].Events[2].Time = 4 // send is 3; 4 = pb+1 without the stamp tick
	b.tr.Locs[1].Events[3].Time = 5
	b.tr.Locs[1].Events[4].Time = 6
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindPiggyback)
}

// TestBarrierMismatch removes the worker's barrier record.
func TestBarrierMismatch(t *testing.T) {
	b := ompTrace()
	w := &b.tr.Locs[1]
	events := w.Events[:0]
	for _, e := range w.Events {
		if e.Kind != trace.EvBarrier {
			events = append(events, e)
		}
	}
	w.Events = events
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindBarrier)
	if !strings.Contains(r.Violations[0].Detail, "1 of 2 threads") {
		t.Fatalf("detail %q should count the missing threads", r.Violations[0].Detail)
	}
}

// TestForkWithoutJoin removes the join record.
func TestForkWithoutJoin(t *testing.T) {
	b := ompTrace()
	m := &b.tr.Locs[0]
	events := m.Events[:0]
	for _, e := range m.Events {
		if e.Kind != trace.EvJoin {
			events = append(events, e)
		}
	}
	m.Events = events
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindForkJoin)
	if !strings.Contains(r.Violations[0].Detail, "never joined") {
		t.Fatalf("detail %q should flag the unjoined fork", r.Violations[0].Detail)
	}
}

// TestUnbalancedRegion drops the final exit.
func TestUnbalancedRegion(t *testing.T) {
	b := messageTrace()
	l0 := &b.tr.Locs[0]
	l0.Events = l0.Events[:len(l0.Events)-1]
	r := Verify(b.tr, Options{})
	expectOnly(t, r, KindUnbalanced)
}

// TestViolationCap: per-kind recording stops at maxPerKind but totals
// keep counting.
func TestViolationCap(t *testing.T) {
	const sends = maxPerKind + 5
	b := newBuilder("lt_1")
	l0 := b.loc(0, 0)
	b.ev(l0, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
	for i := 0; i < sends; i++ {
		b.ev(l0, trace.EvSend, uint64(2+i), "main", trace.RoleUser, 1, 7, 8)
	}
	b.ev(l0, trace.EvExit, 2+sends, "main", trace.RoleUser, 0, 0, 0)
	b.loc(1, 0) // rank 1 exists but never receives
	r := Verify(b.tr, Options{})
	if r.Counts[KindOrphanSend] != sends {
		t.Fatalf("expected %d counted orphan sends, got %d", sends, r.Counts[KindOrphanSend])
	}
	n := 0
	for _, v := range r.Violations {
		if v.Kind == KindOrphanSend {
			n++
		}
	}
	if n != maxPerKind {
		t.Fatalf("expected %d recorded orphan sends, got %d", maxPerKind, n)
	}
}

// TestReportJSON: the report must round-trip through JSON with the
// structured fields intact.
func TestReportJSON(t *testing.T) {
	b := messageTrace()
	b.tr.Locs[1].Events[2].Time = 3
	b.tr.Locs[1].Events[3].Time = 4
	b.tr.Locs[1].Events[4].Time = 5
	r := Verify(b.tr, Options{})
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Clock != "lt_stmt" || !back.Logical || back.Counts[KindClockCondition] == 0 {
		t.Fatalf("JSON round-trip lost fields: %s", data)
	}
	if back.Violations[0].Event.Region == "" {
		t.Fatalf("violation should carry the enclosing region: %s", data)
	}
}

// TestRenderSummary sanity-checks the human-readable rendering.
func TestRenderSummary(t *testing.T) {
	r := Verify(messageTrace().tr, Options{})
	var sb strings.Builder
	r.Render(&sb, 0)
	out := sb.String()
	if !strings.Contains(out, "OK") || !strings.Contains(out, "lt_stmt") {
		t.Fatalf("render output missing summary: %q", out)
	}
}

// barrierTailTrace is a master and a worker meeting at one barrier, the
// worker's BARRIER record being its last event: the release edge into
// the worker has no closing Exit and falls back to the record itself,
// so that member's entry does not precede its exit.  The worker's
// barrier stamp equals the master's: one clock-condition breach, on
// that edge.
func barrierTailTrace() *trace.Trace {
	b := newBuilder("lt_bb")
	m := b.loc(0, 0)
	w := b.loc(0, 1)
	b.ev(m, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
	b.ev(m, trace.EvEnter, 2, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(m, trace.EvBarrier, 3, "!$omp ibarrier", trace.RoleOmpBarrier, 2, 0, 0)
	b.ev(m, trace.EvExit, 9, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(m, trace.EvExit, 10, "main", trace.RoleUser, 0, 0, 0)
	b.ev(w, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
	b.ev(w, trace.EvEnter, 2, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(w, trace.EvBarrier, 3, "!$omp ibarrier", trace.RoleOmpBarrier, 2, 0, 0)
	return b.tr
}

// doubleBarrierTrace is a master and a worker where the worker reaches
// barrier seq 0 twice, so one instance has two members on the same
// location; the second visit's stamp runs past the master's release.
func doubleBarrierTrace() *trace.Trace {
	b := newBuilder("lt_bb")
	m := b.loc(0, 0)
	w := b.loc(0, 1)
	b.ev(m, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
	b.ev(m, trace.EvEnter, 2, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(m, trace.EvBarrier, 3, "!$omp ibarrier", trace.RoleOmpBarrier, 2, 0, 0)
	b.ev(m, trace.EvExit, 9, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(m, trace.EvExit, 20, "main", trace.RoleUser, 0, 0, 0)
	b.ev(w, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
	b.ev(w, trace.EvEnter, 2, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(w, trace.EvBarrier, 5, "!$omp ibarrier", trace.RoleOmpBarrier, 2, 0, 0)
	b.ev(w, trace.EvExit, 10, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(w, trace.EvEnter, 11, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	b.ev(w, trace.EvBarrier, 12, "!$omp ibarrier", trace.RoleOmpBarrier, 2, 0, 0)
	b.ev(w, trace.EvExit, 13, "!$omp ibarrier", trace.RoleOmpBarrier, 0, 0, 0)
	return b.tr
}

// TestDegenerateBarrierGroups pins the exact reports on two barrier
// instances whose release edges cannot be replayed through one shared
// vector: a member whose entry does not precede its exit, and two
// members on the same location.  Both paths must report exactly what
// the pairwise release edges imply.
func TestDegenerateBarrierGroups(t *testing.T) {
	cases := []struct {
		name string
		tr   *trace.Trace
		want string
	}{
		{"barrier-is-last-event", barrierTailTrace(), `{"clock":"lt_bb","logical":true,"locations":2,"events":8,"edges":2,"counts":{"clock-condition":1,"unbalanced-region":1},"violations":[{"kind":"clock-condition","event":{"loc":1,"index":2,"rank":0,"thread":1,"kind":"BARRIER","region":"!$omp ibarrier","time":3},"peer":{"loc":0,"index":2,"rank":0,"thread":0,"kind":"BARRIER","region":"!$omp ibarrier","time":3},"detail":"edge target stamp 3 does not exceed source stamp 3"},{"kind":"unbalanced-region","event":{"loc":1,"index":1,"rank":0,"thread":1,"kind":"ENTER","region":"main","time":2},"detail":"2 region(s) never exited before end of stream"}]}`},
		{"barrier-seq-reached-twice", doubleBarrierTrace(), `{"clock":"lt_bb","logical":true,"locations":2,"events":12,"edges":4,"counts":{"barrier-mismatch":2,"clock-condition":1,"unbalanced-region":1},"violations":[{"kind":"barrier-mismatch","event":{"loc":0,"index":2,"rank":0,"thread":0,"kind":"BARRIER","region":"!$omp ibarrier","time":3},"detail":"3 of 2 threads reached barrier seq 0 on rank 0"},{"kind":"barrier-mismatch","event":{"loc":1,"index":5,"rank":0,"thread":1,"kind":"BARRIER","region":"!$omp ibarrier","time":12},"detail":"barrier seq 0 observed where seq 1 was expected"},{"kind":"clock-condition","event":{"loc":0,"index":3,"rank":0,"thread":0,"kind":"EXIT","region":"!$omp ibarrier","time":9},"peer":{"loc":1,"index":5,"rank":0,"thread":1,"kind":"BARRIER","region":"!$omp ibarrier","time":12},"detail":"edge target stamp 9 does not exceed source stamp 12"},{"kind":"unbalanced-region","event":{"loc":1,"index":0,"rank":0,"thread":1,"kind":"ENTER","time":1},"detail":"1 region(s) never exited before end of stream"}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for path, r := range map[string]*Report{
				"Verify":     Verify(tc.tr, Options{}),
				"round trip": Verify(roundTrip(t, tc.tr), Options{}),
			} {
				got, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != tc.want {
					t.Errorf("%s report:\n got  %s\n want %s", path, got, tc.want)
				}
			}
		})
	}
}

// cycleTrace builds two ranks that each receive from the other before
// sending to it.  FIFO matching pairs each send with the other rank's
// earlier receive, so the synchronisation edges form a cycle and no
// execution could have recorded the trace.
func cycleTrace(clock string) *trace.Trace {
	b := newBuilder(clock)
	for rank := int32(0); rank < 2; rank++ {
		l := b.loc(int(rank), 0)
		b.ev(l, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
		b.ev(l, trace.EvEnter, 2, "MPI_Recv", trace.RoleMPIP2P, 0, 0, 0)
		b.ev(l, trace.EvRecv, 3, "MPI_Recv", trace.RoleMPIP2P, 1-rank, 7, 64)
		b.ev(l, trace.EvExit, 4, "MPI_Recv", trace.RoleMPIP2P, 0, 0, 0)
		b.ev(l, trace.EvEnter, 5, "MPI_Send", trace.RoleMPIP2P, 0, 0, 0)
		b.ev(l, trace.EvSend, 6, "MPI_Send", trace.RoleMPIP2P, 1-rank, 7, 64)
		b.ev(l, trace.EvExit, 7, "MPI_Send", trace.RoleMPIP2P, 0, 0, 0)
		b.ev(l, trace.EvExit, 8, "main", trace.RoleUser, 0, 0, 0)
	}
	return b.tr
}

// TestCausalityCycle requires a cyclic trace to be reported as one
// causality cycle of the whole trace.  A physical trace gets no edge
// check, so the cycle walk alone decides it; on a logical trace both
// message edges also breach the clock condition.
func TestCausalityCycle(t *testing.T) {
	cases := []struct {
		clock string
		want  map[Kind]int
	}{
		{"tsc", map[Kind]int{KindCycle: 1}},
		{"lt_stmt", map[Kind]int{KindCycle: 1, KindClockCondition: 2}},
	}
	for _, tc := range cases {
		r := Verify(cycleTrace(tc.clock), Options{})
		if !maps.Equal(r.Counts, tc.want) {
			t.Errorf("%s: counts %v, want %v", tc.clock, r.Counts, tc.want)
			continue
		}
		var sb strings.Builder
		r.Render(&sb, 0)
		const line = "  causality-cycle: trace: synchronisation cycle or unmatched dependency: 12 events unreachable\n"
		if !strings.Contains(sb.String(), line) {
			t.Errorf("%s: rendered report lacks %q:\n%s", tc.clock, line, sb.String())
		}
		for _, v := range r.Violations {
			if v.Kind == KindCycle && (v.Event.Rank != -1 || v.Event.Thread != -1) {
				t.Errorf("%s: cycle reported at %+v, want rank and thread -1", tc.clock, v.Event)
			}
		}
	}
}

// TestCycleWalkOnAbsurdLocationCounts feeds a trace of thousands of
// two-event locations: the cycle walk holds no per-location vectors, so
// it runs at any location count in memory linear in the locations.
func TestCycleWalkOnAbsurdLocationCounts(t *testing.T) {
	b := newBuilder("lt_1")
	const locs = 4200 // a vector per location would need locs² cells
	for i := 0; i < locs; i++ {
		l := b.loc(i, 0)
		b.ev(l, trace.EvEnter, 1, "main", trace.RoleUser, 0, 0, 0)
		b.ev(l, trace.EvExit, 2, "main", trace.RoleUser, 0, 0, 0)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Verify(b.tr, Options{})
	runtime.ReadMemStats(&after)
	if !r.OK() {
		t.Fatalf("report %v; want a clean report", r.Counts)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("Verify allocated %d bytes", alloc)
	}
}
