// Package simmpi is an MPI-like message-passing runtime on top of the
// vtime kernel.  Ranks are simulated processes whose master threads are
// vtime actors; point-to-point messages travel over the machine model's
// links (eager below a threshold, rendezvous above it, so both late-sender
// and late-receiver wait states can arise), and collectives synchronise
// all participants the way Scalasca's NxN wait-state model assumes.
//
// Like simomp, the runtime is hook-free; the measurement layer wraps each
// call the way Score-P's PMPI wrappers do in the paper, and the Piggyback
// field on messages and collectives carries the logical-clock payload
// (paper §II-B chooses extra messages inside the wrappers; we model the
// same information flow on the message envelope).
package simmpi

import (
	"fmt"
	"math"

	"repro/internal/loc"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/simomp"
	"repro/internal/vtime"
)

// Wildcards for Recv/Irecv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config models the intrinsic costs of the MPI library.
type Config struct {
	// EagerThreshold is the message size, in bytes, up to which sends
	// complete locally (eager protocol).  Larger messages use rendezvous
	// and block the sender until the receiver arrives.
	EagerThreshold int
	// SendOverhead and RecvOverhead are per-call CPU costs in seconds.
	SendOverhead float64
	RecvOverhead float64
	// CollOverhead is the per-call CPU cost of entering a collective.
	CollOverhead float64
	// CollPerRank is the per-participant cost added to a collective's
	// communication phase (progress engine work grows with the group).
	CollPerRank float64
	// CollBWFactor scales the bandwidth term of collective cost models.
	CollBWFactor float64
}

// DefaultConfig returns costs typical of a tuned MPI on a fast fabric.
func DefaultConfig() Config {
	return Config{
		EagerThreshold: 16 * 1024,
		SendOverhead:   0.3e-6,
		RecvOverhead:   0.3e-6,
		CollOverhead:   0.5e-6,
		CollPerRank:    0.12e-6,
		CollBWFactor:   1.0,
	}
}

// World is one simulated MPI job.
type World struct {
	K     *vtime.Kernel
	M     *machine.Machine
	Place machine.Placement
	Cfg   Config
	Omp   simomp.Costs

	noiseModel *noise.Model
	procs      []*Proc
	world      *Comm
	subs       map[string]*Comm
	metrics    Metrics // observe-only counters (zero value: no-op)
}

// Proc is one MPI rank.
type Proc struct {
	W    *World
	Rank int
	// Loc is the master thread's location (thread 0).
	Loc *loc.Location
	// Team is the rank's OpenMP thread team (master = Loc).
	Team *simomp.Team

	cond    *vtime.Cond // wakes the rank when message state changes
	mbox    []*Message  // arrived or announced messages, delivery order
	recvs   []*Request  // posted receives awaiting a match
	collSeq map[*Comm]int
}

// Message is a point-to-point message envelope.
type Message struct {
	Src, Dst, Tag int
	Bytes         int
	Data          []float64
	// Piggyback carries the measurement layer's logical-clock payload.
	Piggyback uint64

	rendezvous  bool
	transferred bool
	consumed    bool
	senderReq   *Request
}

// NewWorld builds a job over the given placement.  noiseModel may be nil
// for a noise-free run.
func NewWorld(k *vtime.Kernel, m *machine.Machine, place machine.Placement, cfg Config, omp simomp.Costs, nm *noise.Model) *World {
	w := &World{K: k, M: m, Place: place, Cfg: cfg, Omp: omp, noiseModel: nm}
	w.procs = make([]*Proc, place.Ranks)
	ranks := make([]int, place.Ranks)
	for r := range ranks {
		ranks[r] = r
	}
	w.world = newComm(w, ranks)
	return w
}

// CommWorld returns the communicator containing every rank.
func (w *World) CommWorld() *Comm { return w.world }

// Proc returns rank r's process after Launch has created it.
func (w *World) Proc(r int) *Proc { return w.procs[r] }

// newLocation builds the location context for (rank, thread).
func (w *World) newLocation(r, t int) *loc.Location {
	core := w.Place.Core(r, t)
	l := &loc.Location{
		Index:  w.Place.Location(r, t),
		Rank:   r,
		Thread: t,
		Core:   core,
		M:      w.M,
	}
	if w.noiseModel != nil {
		l.Noise = w.noiseModel.Source(l.Index, w.M.NodeOf(core))
	}
	return l
}

// Launch spawns every rank's master actor running main and returns
// immediately; call the kernel's Run to execute the job.  Each rank's
// OpenMP team is created before main runs and closed after it returns.
func (w *World) Launch(main func(p *Proc)) {
	for r := 0; r < w.Place.Ranks; r++ {
		r := r
		p := &Proc{
			W:       w,
			Rank:    r,
			cond:    w.K.NewCond(fmt.Sprintf("mpi-r%d", r)),
			collSeq: make(map[*Comm]int),
		}
		w.procs[r] = p
		locs := make([]*loc.Location, w.Place.ThreadsPerRank)
		for t := range locs {
			locs[t] = w.newLocation(r, t)
		}
		p.Loc = locs[0]
		w.K.Spawn(fmt.Sprintf("rank%d", r), func(a *vtime.Actor) {
			p.Loc.Actor = a
			p.Team = simomp.NewTeam(w.K, locs, w.Omp)
			main(p)
			p.Team.Close()
		})
	}
}

// collStages returns the number of communication stages of a
// dissemination-style collective over p ranks.
func collStages(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}
