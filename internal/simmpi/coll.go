package simmpi

import (
	"fmt"
	"sync/atomic"

	"repro/internal/vtime"
)

// Op selects the reduction operator of Allreduce.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

// CollKind names a collective operation; the measurement layer records it
// as the collective's region name.  The analyzer files waits in
// MPI_Barrier as wait_barrier and in every other collective as
// wait-at-NxN.
type CollKind string

// Collective kinds.
const (
	CollBarrier   CollKind = "MPI_Barrier"
	CollAllreduce CollKind = "MPI_Allreduce"
	CollAllgather CollKind = "MPI_Allgather"
	CollAlltoall  CollKind = "MPI_Alltoall"
)

// Comm is a communicator: an ordered group of ranks that synchronise in
// collectives.
type Comm struct {
	w       *World
	ranks   []int
	indexOf map[int]int
	slots   map[int]*collSlot
}

type collSlot struct {
	kind    CollKind
	opener  int   // world rank that opened the slot (first caller)
	callers []int // world ranks that have called into the slot so far
	cond    *vtime.Cond
	arrived int
	// exited counts ranks that left the released slot.  It only gates
	// slot GC, never timing.
	exited   atomic.Int32
	released bool
	maxPB    uint64
	bytes    float64 // total payload for the cost model

	reduce []float64
	gather [][]float64
}

func newComm(w *World, ranks []int) *Comm {
	c := &Comm{w: w, ranks: ranks, indexOf: make(map[int]int, len(ranks)), slots: make(map[int]*collSlot)}
	for i, r := range ranks {
		c.indexOf[r] = i
	}
	return c
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// slotFor fetches or creates the collective slot for this rank's next
// operation on c, validating that all ranks run the same collective.
func (c *Comm) slotFor(p *Proc, kind CollKind) *collSlot {
	if _, ok := c.indexOf[p.Rank]; !ok {
		panic(fmt.Sprintf("simmpi: rank %d not in communicator", p.Rank))
	}
	seq := p.collSeq[c]
	p.collSeq[c] = seq + 1
	s, ok := c.slots[seq]
	if !ok {
		s = &collSlot{kind: kind, opener: p.Rank, cond: c.w.K.NewCond(fmt.Sprintf("coll-%s-%d", kind, seq))}
		c.slots[seq] = s
	} else if s.kind != kind {
		panic(fmt.Sprintf(
			"simmpi: collective mismatch at seq %d on %d-rank communicator: rank %d calls %s, but rank %d opened this operation as %s (ranks arrived so far: %v)",
			seq, len(c.ranks), p.Rank, kind, s.opener, s.kind, s.callers))
	}
	s.callers = append(s.callers, p.Rank)
	// Opportunistic cleanup of fully-exited older slots.
	if s.arrived == 0 {
		for old, os := range c.slots {
			if old < seq && int(os.exited.Load()) == len(c.ranks) {
				delete(c.slots, old)
			}
		}
	}
	return s
}

// cost returns the virtual duration of the collective's communication
// phase once every rank has arrived.
func (c *Comm) cost(s *collSlot) float64 {
	cfg := c.w.Cfg
	m := c.w.M.Cfg
	lat, bw := m.IntraNodeLatency, m.IntraNodeBW
	if c.spansNodes() {
		lat, bw = m.InterNodeLatency, m.InterNodeBW
	}
	stages := collStages(len(c.ranks))
	return stages*lat + float64(len(c.ranks))*cfg.CollPerRank + s.bytes*cfg.CollBWFactor/bw
}

func (c *Comm) spansNodes() bool {
	if len(c.ranks) == 0 {
		return false
	}
	w := c.w
	first := w.M.NodeOf(w.Place.Core(c.ranks[0], 0))
	for _, r := range c.ranks[1:] {
		if w.M.NodeOf(w.Place.Core(r, 0)) != first {
			return true
		}
	}
	return false
}

// finish is the common rendezvous: the last arriver schedules the release
// after the communication cost; everyone leaves at the release time.
func (c *Comm) finish(p *Proc, s *collSlot, pb uint64) uint64 {
	if pb > s.maxPB {
		s.maxPB = pb
	}
	s.arrived++
	a := p.Loc.Actor
	if s.arrived == len(c.ranks) {
		c.w.metrics.CollRounds.Inc()
		if s.maxPB != 0 {
			// Every participant adopts the slot's piggyback maximum on
			// release: one logical-clock sync per rank.
			c.w.metrics.PiggybackSyncs.Add(uint64(len(c.ranks)))
		}
		d := c.cost(s)
		c.w.K.Post(vtime.Action{Delay: d}, func() {
			s.released = true
			s.cond.Broadcast()
		})
	}
	for !s.released {
		s.cond.Wait(a)
	}
	s.exited.Add(1)
	return s.maxPB
}

// Barrier synchronises all ranks of the communicator.  pb is the logical
// clock piggyback; the maximum over all participants is returned.
func (c *Comm) Barrier(p *Proc, pb uint64) uint64 {
	p.Loc.Actor.Compute(c.w.Cfg.CollOverhead)
	s := c.slotFor(p, CollBarrier)
	return c.finish(p, s, pb)
}

// Allreduce combines data element-wise across ranks with op and returns
// the result (a fresh slice) to every rank, plus the piggyback maximum.
func (c *Comm) Allreduce(p *Proc, data []float64, op Op, pb uint64) ([]float64, uint64) {
	p.Loc.Actor.Compute(c.w.Cfg.CollOverhead)
	s := c.slotFor(p, CollAllreduce)
	if s.reduce == nil {
		s.reduce = append([]float64(nil), data...)
	} else {
		if len(s.reduce) != len(data) {
			panic("simmpi: Allreduce length mismatch across ranks")
		}
		for i, v := range data {
			switch op {
			case OpSum:
				s.reduce[i] += v
			case OpMax:
				if v > s.reduce[i] {
					s.reduce[i] = v
				}
			case OpMin:
				if v < s.reduce[i] {
					s.reduce[i] = v
				}
			}
		}
	}
	s.bytes += float64(8 * len(data))
	maxPB := c.finish(p, s, pb)
	return append([]float64(nil), s.reduce...), maxPB
}

// Allgather concatenates each rank's contribution; result[i] is the data
// of the communicator's i-th rank.
func (c *Comm) Allgather(p *Proc, data []float64, pb uint64) ([][]float64, uint64) {
	p.Loc.Actor.Compute(c.w.Cfg.CollOverhead)
	s := c.slotFor(p, CollAllgather)
	if s.gather == nil {
		s.gather = make([][]float64, len(c.ranks))
	}
	s.gather[c.indexOf[p.Rank]] = append([]float64(nil), data...)
	s.bytes += float64(8 * len(data) * len(c.ranks))
	maxPB := c.finish(p, s, pb)
	out := make([][]float64, len(c.ranks))
	for i, d := range s.gather {
		out[i] = append([]float64(nil), d...)
	}
	return out, maxPB
}

// Alltoall performs a personalised exchange: data[j] goes to the j-th
// rank; result[i] is what the i-th rank sent here.
func (c *Comm) Alltoall(p *Proc, data [][]float64, pb uint64) ([][]float64, uint64) {
	if len(data) != len(c.ranks) {
		panic("simmpi: Alltoall needs one slice per rank")
	}
	p.Loc.Actor.Compute(c.w.Cfg.CollOverhead)
	s := c.slotFor(p, CollAlltoall)
	if s.gather == nil {
		s.gather = make([][]float64, len(c.ranks)*len(c.ranks))
	}
	me := c.indexOf[p.Rank]
	for j, d := range data {
		s.gather[me*len(c.ranks)+j] = append([]float64(nil), d...)
		s.bytes += float64(8 * len(d))
	}
	maxPB := c.finish(p, s, pb)
	out := make([][]float64, len(c.ranks))
	for i := range out {
		out[i] = append([]float64(nil), s.gather[i*len(c.ranks)+me]...)
	}
	return out, maxPB
}
