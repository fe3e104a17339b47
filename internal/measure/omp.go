package measure

import (
	"repro/internal/simomp"
	"repro/internal/trace"
	"repro/internal/work"
)

// teamWrap is the Opari2-analogue per-team instrumentation state: the
// piggyback rendezvous slots through which the logical clocks synchronise
// across threads at forks, barriers and joins.
type teamWrap struct {
	rank    *Rank
	barPB   map[int32]uint64
	forkSeq int32
	forkPB  uint64
	joinPB  uint64
}

// Thread is the application-facing handle for one OpenMP thread inside a
// parallel region.
type Thread struct {
	th   *simomp.Thread
	rec  *recorder // nil when unmeasured
	rank *Rank
}

// ID returns the OpenMP thread number.
func (t *Thread) ID() int { return t.th.ID }

// Count returns the team size.
func (t *Thread) Count() int { return t.th.Team.Size() }

// StaticChunk returns this thread's static-schedule share of n iterations.
func (t *Thread) StaticChunk(n int) (lo, hi int) { return t.th.StaticChunk(n) }

// Work executes a quantum of application work on this thread.
func (t *Thread) Work(c work.Cost) {
	if t.rec == nil {
		t.th.Loc.Work(c)
		return
	}
	t.rec.flush(false)
	t.th.Loc.WorkOverhead(c, t.rank.countingInstr(c))
}

// Enter opens a user region on this thread.
func (t *Thread) Enter(name string) {
	if t.rec != nil {
		t.rec.flush(false)
		t.rec.enter(name, trace.RoleUser)
	}
}

// Exit closes the current user region on this thread.
func (t *Thread) Exit() {
	if t.rec != nil {
		t.rec.exit()
	}
}

// Barrier is the measured OpenMP barrier.  Arrival and departure
// timestamps let the analyzer split waiting time from barrier overhead,
// and the piggyback rendezvous synchronises the logical clocks across the
// team (a barrier is communication).
func (t *Thread) Barrier() {
	if t.rec == nil {
		t.th.Barrier()
		return
	}
	rec := t.rec
	tw := t.rank.tw
	rec.ompCallCounts()
	rec.flush(false)
	rec.enter("!$omp ibarrier", trace.RoleOmpBarrier)
	seq := rec.barSeen
	rec.barSeen++
	rec.event(trace.EvBarrier, 0, int32(t.Count()), seq, 0)
	if pb := rec.clock.SendPB(); pb > tw.barPB[seq] {
		tw.barPB[seq] = pb
	}
	t.th.Barrier()
	rec.clock.RecvPB(tw.barPB[seq])
	rec.exit()
}

// Parallel runs body on every thread of the rank's team with an implicit
// barrier at the end (OpenMP semantics).  The master records fork/join
// events; every thread opens a per-thread parallel region so the analyzer
// sees the team's structure.
func (r *Rank) Parallel(name string, body func(t *Thread)) {
	if r.m == nil {
		r.P.Team.Parallel(func(th *simomp.Thread) {
			t := &Thread{th: th, rank: r}
			body(t)
			t.Barrier()
		})
		return
	}
	rec := r.rec
	tw := r.tw
	rec.flush(false)
	seq := tw.forkSeq
	tw.forkSeq++
	rec.ompCallCounts()
	rec.event(trace.EvFork, 0, int32(r.Threads()), seq, 0)
	tw.forkPB = rec.clock.SendPB()
	tw.joinPB = 0
	pname := "!$omp parallel " + name
	// Workers inherit the master's fork-time call path, the way Scalasca
	// roots a team's parallel region under the enclosing user code: each
	// worker opens one region named with the full prefix, whose joined
	// path string matches the master's chain.
	prefix := rec.callPath()
	// The master-side fork cost runs inside the raw Parallel call before
	// the master's body starts; bracket it with a management region so
	// the analyzer attributes it to "starting and ending parallel
	// regions" rather than to the enclosing user code.
	rec.enter("!$omp fork", trace.RoleOmpMgmt)
	r.P.Team.Parallel(func(th *simomp.Thread) {
		trec := r.recs[th.ID]
		t := &Thread{th: th, rec: trec, rank: r}
		if th.ID != 0 {
			trec.clock.RecvPB(tw.forkPB)
			if prefix != "" {
				trec.enter(prefix, trace.RoleUser)
			}
		} else {
			trec.exit() // close the fork region: the team is running
		}
		trec.ompCallCounts()
		trec.enter(pname, trace.RoleOmpParallel)
		body(t)
		t.Barrier()
		trec.exit()
		if th.ID != 0 {
			if prefix != "" {
				trec.exit()
			}
			if pb := trec.clock.SendPB(); pb > tw.joinPB {
				tw.joinPB = pb
			}
			// Workers must leave the region with no pending overhead:
			// outside parallel regions their actors are parked, and
			// nothing may execute work on them from other goroutines.
			trec.flush(true)
		} else {
			// The join wait and join cost follow on the master inside
			// the raw call; bracket them like the fork.
			trec.enter("!$omp join", trace.RoleOmpMgmt)
		}
	})
	rec.exit() // close the join region
	rec.clock.RecvPB(tw.joinPB)
	rec.ompCallCounts()
	rec.event(trace.EvJoin, 0, int32(r.Threads()), seq, 0)
}

// ParallelFor is the measured fused "omp parallel for": each thread runs
// body on its static chunk inside a loop region, then waits at the
// implicit barrier.
func (r *Rank) ParallelFor(name string, n int, body func(lo, hi int, t *Thread)) {
	lname := "!$omp for " + name
	r.Parallel(name, func(t *Thread) {
		lo, hi := t.StaticChunk(n)
		if t.rec != nil {
			t.rec.ompCallCounts()
			t.rec.enter(lname, trace.RoleOmpLoop)
		}
		body(lo, hi, t)
		if t.rec != nil {
			t.rec.exit()
		}
	})
}
