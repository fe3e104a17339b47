// Package scalasca is the automatic trace analyzer of the workflow — the
// role Scalasca plays in the paper.  It replays a trace (one event stream
// per location), reconstructs call paths, classifies time by paradigm,
// detects wait states (late sender, late receiver, wait-at-NxN, OpenMP
// barrier waiting), computes delay costs that point at the root causes of
// collective wait states, and emits a cube.Profile.  Analyze replays a
// complete *trace.Trace after its run has ended, as Scalasca replays an
// OTF2 trace post mortem; it has no mode for a partial trace.
package scalasca

import "repro/internal/cube"

// Metric names, matching the paper's Fig. 1 plus the delay-cost metrics
// used in §V-C3.
const (
	MTime            = "time"
	MComp            = "comp"
	MMPI             = "mpi"
	MP2P             = "p2p"
	MLateSender      = "latesender"
	MLateReceiver    = "latereceiver"
	MCollective      = "collective"
	MWaitNxN         = "wait_nxn"
	MWaitBarrier     = "wait_barrier"
	MOmp             = "omp"
	MOmpMgmt         = "management"
	MOmpSync         = "synchronization"
	MBarrierWait     = "barrier_wait"
	MBarrierOverhead = "barrier_overhead"
	MIdleThreads     = "idle_threads"
	MDelayNxN        = "delay_mpi_collective_n2n"
	MDelayLateSender = "delay_p2p_latesender"
)

// metricSet holds the interned ids of the analyzer's metric tree.
type metricSet struct {
	time, comp, mpi, p2p, lateSender, lateReceiver cube.MetricID
	collective, waitNxN, waitBarrier               cube.MetricID
	omp, ompMgmt, ompSync, barWait, barOverhead    cube.MetricID
	idle, delayNxN, delayLS                        cube.MetricID
}

// buildMetrics creates the paper's metric hierarchy in a profile.
func buildMetrics(p *cube.Profile) metricSet {
	var m metricSet
	m.time = p.AddMetric(MTime, "Total time", cube.NoParent)
	m.comp = p.AddMetric(MComp, "Computation", m.time)
	m.mpi = p.AddMetric(MMPI, "MPI calls", m.time)
	m.p2p = p.AddMetric(MP2P, "MPI point-to-point communication", m.mpi)
	m.lateSender = p.AddMetric(MLateSender, "Receiver waiting for a late message", m.p2p)
	m.lateReceiver = p.AddMetric(MLateReceiver, "Sender waiting for a receiver", m.p2p)
	m.collective = p.AddMetric(MCollective, "MPI collective communication", m.mpi)
	m.waitNxN = p.AddMetric(MWaitNxN, "Waiting in MPI all-to-all", m.collective)
	m.waitBarrier = p.AddMetric(MWaitBarrier, "Waiting in MPI barriers", m.collective)
	m.omp = p.AddMetric(MOmp, "OpenMP runtime", m.time)
	m.ompMgmt = p.AddMetric(MOmpMgmt, "Starting and ending parallel regions", m.omp)
	m.ompSync = p.AddMetric(MOmpSync, "Waiting to synchronize threads", m.omp)
	m.barWait = p.AddMetric(MBarrierWait, "Waiting in an OpenMP barrier", m.ompSync)
	m.barOverhead = p.AddMetric(MBarrierOverhead, "Overhead of OpenMP barriers", m.ompSync)
	m.idle = p.AddMetric(MIdleThreads, "Idle worker threads", m.time)
	m.delayNxN = p.AddMetric(MDelayNxN, "Delay costs for MPI all-to-all wait states", cube.NoParent)
	m.delayLS = p.AddMetric(MDelayLateSender, "Delay costs for late-sender wait states", cube.NoParent)
	return m
}
