package scalasca

import (
	"repro/internal/cube"
	"repro/internal/vclock"
)

// messages walks the skeleton's receives in stream order — each matched
// FIFO per (src, dst, tag) channel, the MPI non-overtaking rule — and
// computes the late-sender and late-receiver wait states plus the
// late-sender delay costs.  Unmatched receives carry no wait state.
func (a *analysis) messages(sk *vclock.Skeleton) {
	for i := 0; i < sk.Recvs.Len(); i++ {
		r := sk.Recvs.At(i)
		if r.Peer < 0 {
			continue
		}
		s := sk.Sends.At(int(r.Peer))
		sEvent, sEnter, sExit := float64(s.Time), float64(s.EnterTime), float64(s.ExitTime)
		rEvent, rEnter := float64(r.Time), float64(r.EnterTime)

		// Late sender: the receiver entered its receive before the send
		// started; it blocked until the message could arrive.
		ls := sEvent - rEnter
		if max := rEvent - rEnter; ls > max {
			ls = max
		}
		if ls > 0 {
			a.prof.Add(a.m.lateSender, cube.PathID(r.Tag), r.Loc, ls)
			a.attributeDelay(a.m.delayLS, s.Loc, []int{r.Loc}, sEnter-ls, sEnter, ls)
		}

		// Late receiver: a rendezvous sender blocked until the receiver
		// entered its receive.
		lr := rEnter - sEnter
		if max := sExit - sEnter; lr > max {
			lr = max
		}
		if lr > 0 {
			a.prof.Add(a.m.lateReceiver, cube.PathID(s.Tag), s.Loc, lr)
		}
	}
}

// collectives computes the wait-at-NxN state of every collective
// instance, in (comm, seq) order: every rank that arrived before the
// last one waited for it (paper §III).  The delay cost of each instance
// is attributed to the computation the delaying rank performed since the
// communicator's previous synchronisation point — that is what points
// the analyst at imbalanced functions rather than at the MPI call
// itself.
func (a *analysis) collectives(sk *vclock.Skeleton) {
	prevRelease := make(map[int32]float64) // comm -> previous instance's max enter
	for _, in := range sk.CollIns {
		if len(in.Members) < 2 {
			continue
		}
		parts := in.Members
		last := sk.Colls.At(int(parts[0]))
		maxEnter := float64(last.EnterTime)
		for _, m := range parts[1:] {
			if p := sk.Colls.At(int(m)); float64(p.EnterTime) > maxEnter {
				maxEnter = float64(p.EnterTime)
				last = p
			}
		}
		var totalWait float64
		for _, m := range parts {
			p := sk.Colls.At(int(m))
			if w := maxEnter - float64(p.EnterTime); w > 0 {
				metric := a.m.waitNxN
				if a.tr.Regions[p.Scope].Name == "MPI_Barrier" {
					metric = a.m.waitBarrier
				}
				a.prof.Add(metric, cube.PathID(p.Tag), p.Loc, w)
				totalWait += w
			}
		}
		if totalWait > 0 {
			others := make([]int, 0, len(parts)-1)
			for _, m := range parts {
				if loc := sk.Colls.At(int(m)).Loc; loc != last.Loc {
					others = append(others, loc)
				}
			}
			a.attributeDelay(a.m.delayNxN, last.Loc, others, prevRelease[in.Key], maxEnter, totalWait)
		}
		prevRelease[in.Key] = maxEnter
	}
}

// ompBarriers splits each OpenMP barrier instance, in (rank, seq) order,
// into waiting (before the last thread arrived) and overhead (after).
func (a *analysis) ompBarriers(sk *vclock.Skeleton) {
	var parts []*vclock.Sync
	for _, in := range sk.BarIns {
		parts = parts[:0]
		for _, m := range in.Members {
			parts = append(parts, sk.Bars.At(int(m)))
		}
		if len(parts) < 2 {
			// A one-thread team's barrier is pure overhead.
			for _, p := range parts {
				a.prof.Add(a.m.barOverhead, cube.PathID(p.Tag), p.Loc, float64(p.ExitTime)-float64(p.EnterTime))
			}
			continue
		}
		maxEnter := float64(parts[0].EnterTime)
		for _, p := range parts[1:] {
			if float64(p.EnterTime) > maxEnter {
				maxEnter = float64(p.EnterTime)
			}
		}
		for _, p := range parts {
			enter, exit := float64(p.EnterTime), float64(p.ExitTime)
			w := maxEnter - enter
			if w < 0 {
				w = 0
			}
			if max := exit - enter; w > max {
				w = max
			}
			oh := (exit - enter) - w
			if w > 0 {
				a.prof.Add(a.m.barWait, cube.PathID(p.Tag), p.Loc, w)
			}
			if oh > 0 {
				a.prof.Add(a.m.barOverhead, cube.PathID(p.Tag), p.Loc, oh)
			}
		}
	}
}
