package measure

import (
	"repro/internal/core"
	"repro/internal/simmpi"
	"repro/internal/trace"
	"repro/internal/work"
)

// Rank is the application-facing handle for one MPI rank.  All application
// code — regions, work quanta, MPI calls, OpenMP constructs — goes through
// it, so the same program runs instrumented (m != nil) or as an
// uninstrumented reference (m == nil).
type Rank struct {
	P *simmpi.Proc

	m    *Measurement
	rec  *recorder   // master thread's recorder (nil when off)
	recs []*recorder // per-thread recorders, index = thread id
	tw   *teamWrap

	collSeq map[*simmpi.Comm]int32
	commIDs map[*simmpi.Comm]int32 // rank-local cache of Measurement.commID
}

// NewRank wraps a rank for measurement.  m may be nil for an
// uninstrumented run.  Call Begin/End (or let the experiment runner do
// it) around the application body.
func NewRank(m *Measurement, p *simmpi.Proc) *Rank {
	r := &Rank{P: p, m: m,
		collSeq: make(map[*simmpi.Comm]int32),
		commIDs: make(map[*simmpi.Comm]int32),
	}
	if m == nil {
		return r
	}
	locs := p.Team.Locations()
	r.recs = make([]*recorder, len(locs))
	for i, l := range locs {
		r.recs[i] = m.newRecorder(l)
	}
	r.rec = r.recs[0]
	r.tw = &teamWrap{rank: r, barPB: make(map[int32]uint64)}
	return r
}

// Measured reports whether this run records events.
func (r *Rank) Measured() bool { return r.m != nil }

// Rank returns the MPI rank number.
func (r *Rank) Rank() int { return r.P.Rank }

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return r.P.W.CommWorld().Size() }

// Threads returns the OpenMP team size.
func (r *Rank) Threads() int { return r.P.Team.Size() }

// Now returns the rank master's current true virtual time (used for
// reference timings and overhead computation, not for trace stamps).
func (r *Rank) Now() float64 { return r.P.Loc.Now() }

// SpreadWorkingSet registers totalBytes of application working set spread
// evenly over the NUMA domains the rank's threads are pinned to — the
// effect of first-touch allocation in a parallel initialisation.  It
// returns a release function that unregisters the same amount.
func (r *Rank) SpreadWorkingSet(totalBytes float64) (release func()) {
	locs := r.P.Team.Locations()
	per := totalBytes / float64(len(locs))
	for _, l := range locs {
		l.M.AddWorkingSet(l.Core, per)
	}
	return func() {
		for _, l := range locs {
			l.M.AddWorkingSet(l.Core, -per)
		}
	}
}

// Begin opens the program region on the master thread.
func (r *Rank) Begin() {
	if r.m != nil {
		r.rec.enter("main", trace.RoleUser)
	}
}

// End closes the program region and flushes residual overhead.  Only the
// master's recorder is flushed here: worker recorders force-flush at the
// end of every parallel region on their own actors (a recorder's overhead
// must only ever be simulated from the goroutine of the actor that owns
// it).
func (r *Rank) End() {
	if r.m == nil {
		return
	}
	r.rec.exit()
	r.rec.flush(true)
}

// Enter opens a user region on the master thread.
func (r *Rank) Enter(name string) {
	if r.m != nil {
		r.rec.flush(false)
		r.rec.enter(name, trace.RoleUser)
	}
}

// Exit closes the current user region on the master thread.
func (r *Rank) Exit() {
	if r.m != nil {
		r.rec.exit()
	}
}

// Region runs fn inside a user region.
func (r *Rank) Region(name string, fn func()) {
	r.Enter(name)
	fn()
	r.Exit()
}

// Work executes a quantum of sequential (master thread) application work.
func (r *Rank) Work(c work.Cost) {
	if r.m == nil {
		r.P.Loc.Work(c)
		return
	}
	r.rec.flush(false)
	r.P.Loc.WorkOverhead(c, r.countingInstr(c))
}

// countingInstr returns the mode-specific per-count instrumentation cost
// riding along with a work quantum: the amortised per-call event fast
// path (every mode), the LLVM plugin's counters (lt_bb/lt_stmt), Opari2's
// loop counters (lt_loop), and per-call counter reads (lt_hwctr).  These
// instructions execute inside the quantum (see Location.WorkOverhead), so
// bandwidth-bound loops hide them while instruction-bound code pays in
// full — the reason Table I's overheads differ so much between MiniFE's
// pointer-chasing init and its streaming solver.
func (r *Rank) countingInstr(c work.Cost) float64 {
	oh := &r.m.Cfg.Overhead
	extra := c.Calls * oh.CallInstr
	switch r.m.Cfg.Mode {
	case core.ModeBB:
		extra += c.BB * oh.PerBBInstr
	case core.ModeStmt, core.ModeWStmt:
		extra += c.Stmt * oh.PerStmtInstr
	case core.ModeLoop:
		extra += c.LoopIters * oh.PerIterInstr
	case core.ModeHwctr, core.ModeHwComb:
		extra += c.Calls * oh.CallCounterInstr
	}
	return extra
}

// spin charges the elapsed in-library time to the hardware instruction
// counter (visible to lt_hwctr only).
func (r *Rank) spin(rec *recorder, start float64) {
	rec.loc.SpinFor(rec.loc.Now() - start)
}

// ---- MPI wrappers (the PMPI layer) ----

// Send is the measured blocking send.
func (r *Rank) Send(dst, tag int, data []float64, bytes int) {
	if r.m == nil {
		r.P.Send(dst, tag, data, bytes, 0)
		return
	}
	rec := r.rec
	rec.flush(false)
	rec.enter("MPI_Send", trace.RoleMPIP2P)
	rec.event(trace.EvSend, 0, int32(dst), int32(tag), int64(bytes))
	pb := rec.clock.SendPB()
	t0 := rec.loc.Now()
	r.P.Send(dst, tag, data, bytes, pb)
	r.spin(rec, t0)
	rec.exit()
}

// Recv is the measured blocking receive.
func (r *Rank) Recv(src, tag int) *simmpi.Message {
	if r.m == nil {
		return r.P.Recv(src, tag)
	}
	rec := r.rec
	rec.flush(false)
	rec.enter("MPI_Recv", trace.RoleMPIP2P)
	t0 := rec.loc.Now()
	msg := r.P.Recv(src, tag)
	r.spin(rec, t0)
	rec.clock.RecvPB(msg.Piggyback)
	rec.event(trace.EvRecv, 0, int32(msg.Src), int32(msg.Tag), int64(msg.Bytes))
	rec.exit()
	return msg
}

// Isend is the measured nonblocking send.
func (r *Rank) Isend(dst, tag int, data []float64, bytes int) *simmpi.Request {
	if r.m == nil {
		return r.P.Isend(dst, tag, data, bytes, 0)
	}
	rec := r.rec
	rec.flush(false)
	rec.enter("MPI_Isend", trace.RoleMPIP2P)
	rec.event(trace.EvSend, 0, int32(dst), int32(tag), int64(bytes))
	pb := rec.clock.SendPB()
	t0 := rec.loc.Now()
	req := r.P.Isend(dst, tag, data, bytes, pb)
	r.spin(rec, t0)
	rec.exit()
	return req
}

// Irecv is the measured nonblocking receive; the matching Recv event is
// recorded when the request completes in Wait or Waitall.
func (r *Rank) Irecv(src, tag int) *simmpi.Request {
	if r.m == nil {
		return r.P.Irecv(src, tag)
	}
	rec := r.rec
	rec.flush(false)
	rec.enter("MPI_Irecv", trace.RoleMPIP2P)
	t0 := rec.loc.Now()
	req := r.P.Irecv(src, tag)
	r.spin(rec, t0)
	rec.exit()
	return req
}

// Waitall completes the given requests; receive completions record their
// Recv events here, inside the MPI_Waitall region (which is where
// lt_hwctr sees spin-wait effort, paper §V-C3).
func (r *Rank) Waitall(reqs []*simmpi.Request) {
	if r.m == nil {
		r.P.Waitall(reqs)
		return
	}
	rec := r.rec
	rec.flush(false)
	rec.enter("MPI_Waitall", trace.RoleMPIWait)
	t0 := rec.loc.Now()
	r.P.Waitall(reqs)
	r.spin(rec, t0)
	for _, q := range reqs {
		if q.Done() && q.IsRecv() {
			msg := q.Msg()
			rec.clock.RecvPB(msg.Piggyback)
			rec.event(trace.EvRecv, 0, int32(msg.Src), int32(msg.Tag), int64(msg.Bytes))
		}
	}
	rec.exit()
}

// Wait completes a single request.
func (r *Rank) Wait(req *simmpi.Request) {
	r.Waitall([]*simmpi.Request{req})
}

// Waitany completes one of the requests and returns its index; a
// completed receive records its Recv event inside the MPI_Waitany region.
func (r *Rank) Waitany(reqs []*simmpi.Request) int {
	if r.m == nil {
		return r.P.Waitany(reqs)
	}
	rec := r.rec
	rec.flush(false)
	rec.enter("MPI_Waitany", trace.RoleMPIWait)
	t0 := rec.loc.Now()
	i := r.P.Waitany(reqs)
	r.spin(rec, t0)
	if q := reqs[i]; q.IsRecv() {
		msg := q.Msg()
		rec.clock.RecvPB(msg.Piggyback)
		rec.event(trace.EvRecv, 0, int32(msg.Src), int32(msg.Tag), int64(msg.Bytes))
	}
	rec.exit()
	return i
}

// collective wraps the common instrumentation of a collective call.
func (r *Rank) collective(comm *simmpi.Comm, name string, bytes int64, call func(pb uint64) uint64) {
	if r.m == nil {
		call(0)
		return
	}
	rec := r.rec
	rec.flush(false)
	rec.enter(name, trace.RoleMPIColl)
	pb := rec.clock.SendPB()
	t0 := rec.loc.Now()
	maxPB := call(pb)
	r.spin(rec, t0)
	rec.clock.RecvPB(maxPB)
	seq := r.collSeq[comm]
	r.collSeq[comm] = seq + 1
	id, ok := r.commIDs[comm]
	if !ok {
		id = r.m.commID(comm)
		r.commIDs[comm] = id
	}
	rec.event(trace.EvCollEnd, 0, id, seq, bytes)
	rec.exit()
}

// Barrier is the measured MPI barrier on the world communicator.
func (r *Rank) Barrier() {
	comm := r.P.W.CommWorld()
	r.collective(comm, string(simmpi.CollBarrier), 0, func(pb uint64) uint64 {
		return comm.Barrier(r.P, pb)
	})
}

// Allreduce is the measured MPI_Allreduce on the world communicator.
func (r *Rank) Allreduce(data []float64, op simmpi.Op) []float64 {
	comm := r.P.W.CommWorld()
	var out []float64
	r.collective(comm, string(simmpi.CollAllreduce), int64(8*len(data)), func(pb uint64) uint64 {
		var maxPB uint64
		out, maxPB = comm.Allreduce(r.P, data, op, pb)
		return maxPB
	})
	return out
}

// Bcast is the measured MPI_Bcast on the world communicator.
func (r *Rank) Bcast(root int, data []float64) []float64 {
	comm := r.P.W.CommWorld()
	var out []float64
	r.collective(comm, string(simmpi.CollBcast), int64(8*len(data)), func(pb uint64) uint64 {
		var maxPB uint64
		out, maxPB = comm.Bcast(r.P, root, data, pb)
		return maxPB
	})
	return out
}

// Allgather is the measured MPI_Allgather on the world communicator.
func (r *Rank) Allgather(data []float64) [][]float64 {
	comm := r.P.W.CommWorld()
	var out [][]float64
	r.collective(comm, string(simmpi.CollAllgather), int64(8*len(data)*comm.Size()), func(pb uint64) uint64 {
		var maxPB uint64
		out, maxPB = comm.Allgather(r.P, data, pb)
		return maxPB
	})
	return out
}

// Alltoall is the measured MPI_Alltoall on the world communicator.
func (r *Rank) Alltoall(data [][]float64) [][]float64 {
	comm := r.P.W.CommWorld()
	var bytes int64
	for _, d := range data {
		bytes += int64(8 * len(d))
	}
	var out [][]float64
	r.collective(comm, string(simmpi.CollAlltoall), bytes, func(pb uint64) uint64 {
		var maxPB uint64
		out, maxPB = comm.Alltoall(r.P, data, pb)
		return maxPB
	})
	return out
}
