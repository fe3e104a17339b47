// Package propagation implements the post-hoc delay-front analysis of
// Afzal, Hager and Wellein ("Propagation and Decay of Injected One-Off
// Delays on Clusters") plus the desynchronization metrics of their
// coupled-oscillator treatment of bulk-synchronous programs — computed
// from a pair of recorded traces instead of hardware timelines.
//
// Given a baseline trace and a faulted trace of the *same* (spec, mode,
// seed), the analyzer aligns the two event streams rank by rank (faults
// perturb durations, never code paths, so the streams are structurally
// identical up to timing-dependent matching choices), and derives:
//
//   - a per-rank delay time series: the timestamp excess of the faulted
//     run over the baseline at every aligned event, bucketed for reports;
//   - the delay front: the first baseline instant each rank's delay
//     exceeds a threshold, the iteration in which that happens, and the
//     front's speed in ranks per tick and ranks per iteration;
//   - decay/absorption classification per rank against the rank's
//     available communication slack (its baseline MPI waiting time) —
//     Afzal's observation that ranks with slack swallow the delay while
//     slack-free chains transport it at one rank per iteration;
//   - desynchronization metrics: per-rank phase relative to the mean
//     iteration period, the phase spread over time, and the settle time
//     after which the job regains its pre-fault synchrony (or never
//     does, the "permanent desynchronization" regime).
//
// Everything is computed in the trace clock's own ticks.  That is the
// point: running the same analysis once per timer mode shows what each
// clock *sees*.  A pure logical clock records bit-identical traces with
// and without the fault, so its delay series is identically zero — the
// noise resilience the source paper celebrates is, from the robustness
// instrument's point of view, complete blindness to the injected event.
// tsc sees the physical front; lt_hwctr sits in between, observing the
// fault only through the spin-wait instructions it induces.
package propagation

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// The analysis runs one parameterisation, the one every study, test and
// golden uses.
const (
	// thresholdFrac places the front threshold at this fraction of the
	// largest delay observed anywhere in the job: half the peak
	// separates "the front arrived" from echo ripples without tuning per
	// workload.
	thresholdFrac = 0.5
	// iterRegionName names the region whose Enter events delimit
	// iterations, the convention of the pattern workloads.
	iterRegionName = "iteration"
	// decayFraction splits decaying from non-decaying ranks: a reached
	// rank whose final delay fell to decayFraction of its peak or below
	// decayed.
	decayFraction = 0.5
	// seriesSamples bounds each rank's reported delay series: buckets
	// over the baseline time span, keeping the peak in each bucket so
	// short spikes survive the downsampling.
	seriesSamples = 64
	// settleFactor is the tolerance for declaring the job
	// resynchronised: the per-iteration phase spread must return below
	// settleFactor times the pre-fault spread.
	settleFactor = 1.5
)

// Options carries no settings: the analysis always runs with the
// constants above.  It remains Analyze's third parameter only until the
// study benchmark (perfbench/) stops passing Options{}.
type Options struct{}

// Class labels how a rank experienced the injected delay.
type Class string

// The per-rank delay classes.
const (
	// ClassUnaffected: the rank never accumulated any delay at all.
	ClassUnaffected Class = "unaffected"
	// ClassAbsorbed: delay arrived but stayed below the front threshold —
	// upstream slack swallowed most of it before it got here.
	ClassAbsorbed Class = "absorbed"
	// ClassDecaying: the front reached the rank, but its delay then fell
	// to decayFraction of the peak or below.
	ClassDecaying Class = "decaying"
	// ClassNonDecaying: the front reached the rank and the delay stuck.
	ClassNonDecaying Class = "non-decaying"
)

// DelayPoint is one bucket of a rank's delay time series.
type DelayPoint struct {
	// T is the bucket's baseline time, in ticks.
	T float64 `json:"t"`
	// Delay is the peak delay observed in the bucket, in ticks.
	Delay float64 `json:"delay"`
}

// RankDelay is one rank's view of the injected delay.
type RankDelay struct {
	Rank int `json:"rank"`
	// Peak and Final are the largest and last observed delays, in ticks.
	Peak  float64 `json:"peak"`
	Final float64 `json:"final"`
	// FrontTime is the baseline tick at which the delay first exceeded
	// the threshold; -1 if the front never reached this rank.
	FrontTime float64 `json:"front_time"`
	// FrontIter is the iteration (0-based count of iterRegionName
	// entries on this rank) during which the front arrived; -1 if it
	// never did.
	FrontIter int `json:"front_iter"`
	// SlackTicks is the rank's baseline communication slack: ticks spent
	// inside MPI wait and collective regions, the budget available to
	// absorb delay without stretching the critical path.
	SlackTicks float64 `json:"slack_ticks"`
	// SlackFrac is SlackTicks over the rank's baseline span.
	SlackFrac float64 `json:"slack_frac"`
	// Class is the decay/absorption classification.
	Class Class `json:"class"`
	// AlignedEvents is the number of structurally identical events the
	// delay series rests on; Misaligned counts the events past the first
	// structural divergence (timing-dependent matching differences, e.g.
	// a master-worker run re-ordering item completions under the fault).
	AlignedEvents int `json:"aligned_events"`
	Misaligned    int `json:"misaligned"`
	// Series is the bucketed delay time series.
	Series []DelayPoint `json:"series,omitempty"`
}

// SpreadPoint is the cross-rank phase spread at one iteration.
type SpreadPoint struct {
	Iter int `json:"iter"`
	// T is the mean faulted completion tick of the iteration.
	T float64 `json:"t"`
	// Spread is (max-min) completion tick across ranks, in units of the
	// mean iteration period.
	Spread float64 `json:"spread"`
}

// Desync holds the coupled-oscillator metrics: the job as a chain of
// oscillators whose phases the injected delay kicks.
type Desync struct {
	// Iterations is the aligned iteration count across ranks (0 when the
	// workload has no iterRegionName region, in which case the rest is
	// zero).
	Iterations int `json:"iterations"`
	// MeanPeriod is the mean iteration period of the faulted run, ticks.
	MeanPeriod float64 `json:"mean_period"`
	// PreSpread is the mean phase spread over the iterations that
	// completed before the injection instant (the job's natural jitter).
	PreSpread float64 `json:"pre_spread"`
	// PeakSpread is the largest phase spread anywhere in the run.
	PeakSpread float64 `json:"peak_spread"`
	// FinalSpread is the phase spread at the last aligned iteration.
	FinalSpread float64 `json:"final_spread"`
	// SettleIter is the first post-injection iteration whose spread fell
	// back below settleFactor * PreSpread; -1 if the job never
	// resynchronised (permanent desynchronization).
	SettleIter int `json:"settle_iter"`
	// SettleTicks is the corresponding resettling span in ticks after the
	// injection instant; -1 if it never settled.
	SettleTicks float64 `json:"settle_ticks"`
	// FinalPhase is each rank's phase at the last aligned iteration, in
	// periods relative to the rank mean (positive = lagging).
	FinalPhase []float64 `json:"final_phase,omitempty"`
	// Spreads is the spread time series, one point per iteration.
	Spreads []SpreadPoint `json:"spreads,omitempty"`
}

// Analysis is the complete propagation picture one clock mode observed.
type Analysis struct {
	// Clock is the trace clock that minted every tick in this analysis.
	Clock string `json:"clock"`
	// Observed reports whether the clock saw the fault at all: any
	// nonzero delay anywhere.
	Observed bool `json:"observed"`
	// ThresholdTicks is the front threshold actually used.
	ThresholdTicks float64 `json:"threshold_ticks"`
	// InjectRank is the rank with the earliest front crossing (the
	// apparent injection site); -1 when no rank was reached.
	InjectRank int `json:"inject_rank"`
	// InjectTick is that earliest front-crossing baseline tick; -1 when
	// no rank was reached.
	InjectTick float64 `json:"inject_tick"`
	// Reached counts ranks the front arrived at.
	Reached int `json:"reached"`
	// FrontSpeedRanksPerTick is the least-squares front speed over the
	// reached ranks: ring distance from InjectRank per baseline tick.
	FrontSpeedRanksPerTick float64 `json:"front_speed_ranks_per_tick"`
	// FrontSpeedRanksPerIter is the same fit against iteration indices —
	// the Afzal unit: ~1 rank/iteration for a slack-free neighbour chain.
	FrontSpeedRanksPerIter float64 `json:"front_speed_ranks_per_iter"`
	// Decaying/NonDecaying/Absorbed/Unaffected count the per-rank classes.
	Decaying   int `json:"decaying"`
	NonDecay   int `json:"non_decaying"`
	Absorbed   int `json:"absorbed"`
	Unaffected int `json:"unaffected"`
	// Ranks is the per-rank detail, ordered by rank.
	Ranks []RankDelay `json:"ranks"`
	// Desync holds the coupled-oscillator metrics.
	Desync Desync `json:"desync"`
}

// rankData is the raw aligned series behind one rank's RankDelay.
type rankData struct {
	times  []float64 // baseline tick per aligned event
	deltas []float64 // faulted - baseline tick per aligned event
	iters  []int     // aligned-event index of each iteration enter
	fIter  []float64 // faulted tick of each iteration enter
	bIter  []float64 // baseline tick of each iteration enter
}

// masterStream finds the thread-0 location of each rank, ordered by rank.
func masterStream(tr *trace.Trace) map[int]*trace.LocTrace {
	m := make(map[int]*trace.LocTrace)
	for i := range tr.Locs {
		l := &tr.Locs[i]
		if l.Thread == 0 {
			m[l.Rank] = l
		}
	}
	return m
}

// sameShape reports whether two events are structurally identical —
// everything except the timestamp.
func sameShape(a, b *trace.Event) bool {
	return a.Kind == b.Kind && a.Region == b.Region && a.A == b.A && a.B == b.B && a.C == b.C
}

// Analyze aligns a baseline and a faulted trace of the same run and
// computes the full propagation picture.  The traces must come from the
// same spec, mode and seed; mismatched clocks or rank sets are an error,
// while per-rank structural divergence past some prefix (a fault changing
// a timing-dependent matching choice) merely truncates that rank's series
// and is reported in RankDelay.Misaligned.
func Analyze(baseline, faulted *trace.Trace, _ Options) (*Analysis, error) {
	if baseline == nil || faulted == nil {
		return nil, fmt.Errorf("propagation: need both a baseline and a faulted trace")
	}
	if baseline.Clock != faulted.Clock {
		return nil, fmt.Errorf("propagation: clock mismatch: baseline %q vs faulted %q", baseline.Clock, faulted.Clock)
	}
	base := masterStream(baseline)
	flt := masterStream(faulted)
	if len(base) == 0 || len(base) != len(flt) {
		return nil, fmt.Errorf("propagation: rank sets differ: baseline %d ranks, faulted %d", len(base), len(flt))
	}
	ranks := len(base)
	a := &Analysis{Clock: baseline.Clock, InjectRank: -1, InjectTick: -1}

	data := make([]rankData, ranks)
	// Resolve the iteration region in the baseline's table; the faulted
	// trace interns regions in the same order (faults never change the
	// code path), which alignment re-checks event by event anyway.
	iterRegion := trace.RegionID(-1)
	for id, def := range baseline.Regions {
		if def.Name == iterRegionName {
			iterRegion = trace.RegionID(id)
			break
		}
	}

	var globalPeak float64
	for r := 0; r < ranks; r++ {
		bl, fl := base[r], flt[r]
		if fl == nil {
			return nil, fmt.Errorf("propagation: rank %d present only in the baseline", r)
		}
		n := len(bl.Events)
		if len(fl.Events) < n {
			n = len(fl.Events)
		}
		d := &data[r]
		aligned := 0
		for i := 0; i < n; i++ {
			be, fe := &bl.Events[i], &fl.Events[i]
			if !sameShape(be, fe) {
				break
			}
			bt, ft := float64(be.Time), float64(fe.Time)
			d.times = append(d.times, bt)
			d.deltas = append(d.deltas, ft-bt)
			if be.Kind == trace.EvEnter && be.Region == iterRegion {
				d.iters = append(d.iters, aligned)
				d.bIter = append(d.bIter, bt)
				d.fIter = append(d.fIter, ft)
			}
			aligned++
		}
		rd := RankDelay{Rank: r, FrontTime: -1, FrontIter: -1, AlignedEvents: aligned,
			Misaligned: max(len(bl.Events), len(fl.Events)) - aligned}
		for _, dv := range d.deltas {
			if dv > rd.Peak {
				rd.Peak = dv
			}
		}
		if len(d.deltas) > 0 {
			rd.Final = d.deltas[len(d.deltas)-1]
		}
		if rd.Peak > globalPeak {
			globalPeak = rd.Peak
		}
		rd.SlackTicks, rd.SlackFrac = slack(baseline, bl)
		a.Ranks = append(a.Ranks, rd)
	}

	a.ThresholdTicks = thresholdFrac * globalPeak
	a.Observed = globalPeak > 0

	// Front crossing, series bucketing and classification per rank.
	for r := 0; r < ranks; r++ {
		d := &data[r]
		rd := &a.Ranks[r]
		if a.Observed {
			iter := 0
			for i, dv := range d.deltas {
				for iter < len(d.iters) && d.iters[iter] <= i {
					iter++
				}
				if dv > a.ThresholdTicks {
					rd.FrontTime = d.times[i]
					rd.FrontIter = iter - 1 // iteration whose body we are in
					break
				}
			}
		}
		rd.Series = bucket(d.times, d.deltas, seriesSamples)
		switch {
		case rd.Peak == 0:
			rd.Class = ClassUnaffected
			a.Unaffected++
		case rd.FrontTime < 0:
			rd.Class = ClassAbsorbed
			a.Absorbed++
		case rd.Final <= decayFraction*rd.Peak:
			rd.Class = ClassDecaying
			a.Decaying++
			a.Reached++
		default:
			rd.Class = ClassNonDecaying
			a.NonDecay++
			a.Reached++
		}
		if rd.FrontTime >= 0 && (a.InjectTick < 0 || rd.FrontTime < a.InjectTick) {
			a.InjectTick = rd.FrontTime
			a.InjectRank = r
		}
	}

	frontSpeeds(a, ranks)
	desync(a, data)
	return a, nil
}

// slack sums the baseline ticks a location spends inside MPI regions —
// time the rank was communicating or stalled on communication, hence
// budget that can absorb an incoming delay without lengthening the run.
// All MPI roles count: nonblocking-heavy codes park their waits in
// RoleMPIWait regions, but blocking exchanges (Sendrecv, Recv) hide the
// same stall inside RoleMPIP2P, and a delayed neighbour stretches both
// alike.
func slack(tr *trace.Trace, l *trace.LocTrace) (ticks, frac float64) {
	if len(l.Events) < 2 {
		return 0, 0
	}
	var stack []trace.Role
	prev := float64(l.Events[0].Time)
	for _, e := range l.Events {
		t := float64(e.Time)
		if len(stack) > 0 && t > prev {
			top := stack[len(stack)-1]
			if top.IsMPI() {
				ticks += t - prev
			}
		}
		prev = t
		switch e.Kind {
		case trace.EvEnter:
			stack = append(stack, tr.Regions[e.Region].Role)
		case trace.EvExit:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	span := float64(l.Events[len(l.Events)-1].Time) - float64(l.Events[0].Time)
	if span > 0 {
		frac = ticks / span
	}
	return ticks, frac
}

// bucket downsamples a delay series to at most samples points, keeping
// each bucket's peak delay.
func bucket(times, deltas []float64, samples int) []DelayPoint {
	if len(times) == 0 {
		return nil
	}
	lo, hi := times[0], times[len(times)-1]
	if hi <= lo || len(times) <= samples {
		out := make([]DelayPoint, len(times))
		for i := range times {
			out[i] = DelayPoint{T: times[i], Delay: deltas[i]}
		}
		return out
	}
	out := make([]DelayPoint, 0, samples)
	scale := float64(samples) / (hi - lo)
	cur, curT, curD, has := 0, 0.0, 0.0, false
	flush := func() {
		if has {
			out = append(out, DelayPoint{T: curT, Delay: curD})
		}
		has = false
	}
	for i := range times {
		b := int((times[i] - lo) * scale)
		if b >= samples {
			b = samples - 1
		}
		if b != cur {
			flush()
			cur = b
		}
		if !has || deltas[i] > curD {
			curT, curD = times[i], deltas[i]
		}
		has = true
	}
	flush()
	return out
}

// ringDist is the shortest distance between two ranks on a ring of n.
func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// frontSpeeds fits the front's propagation speed over the reached ranks:
// a least-squares slope through the injection point of ring distance
// against front arrival (in ticks, and in iterations).  Topology-agnostic
// by design — ring distance is exact for the ring and pipeline patterns
// and a lower bound elsewhere, which is what a front speed should be.
func frontSpeeds(a *Analysis, ranks int) {
	if a.InjectRank < 0 {
		return
	}
	injIter := a.Ranks[a.InjectRank].FrontIter
	var sdt, stt, sdi, sii float64
	for _, rd := range a.Ranks {
		if rd.FrontTime < 0 || rd.Rank == a.InjectRank {
			continue
		}
		d := float64(ringDist(rd.Rank, a.InjectRank, ranks))
		if dt := rd.FrontTime - a.InjectTick; dt > 0 {
			sdt += d * dt
			stt += dt * dt
		}
		if di := float64(rd.FrontIter - injIter); di > 0 {
			sdi += d * di
			sii += di * di
		}
	}
	if stt > 0 {
		a.FrontSpeedRanksPerTick = sdt / stt
	}
	if sii > 0 {
		a.FrontSpeedRanksPerIter = sdi / sii
	}
}

// desync computes the coupled-oscillator metrics from the per-rank
// iteration marks of the faulted run.
func desync(a *Analysis, data []rankData) {
	a.Desync.SettleIter = -1
	a.Desync.SettleTicks = -1
	iters := -1
	for r := range data {
		if iters < 0 || len(data[r].fIter) < iters {
			iters = len(data[r].fIter)
		}
	}
	if iters < 2 {
		return
	}
	a.Desync.Iterations = iters
	// Mean period over all ranks' aligned iteration spans.
	var period float64
	for r := range data {
		period += (data[r].fIter[iters-1] - data[r].fIter[0]) / float64(iters-1)
	}
	period /= float64(len(data))
	a.Desync.MeanPeriod = period
	if period <= 0 {
		return
	}
	// Spread per iteration: (max-min) completion tick across ranks in
	// periods.
	spreads := make([]SpreadPoint, iters)
	for k := 0; k < iters; k++ {
		lo, hi, mean := math.Inf(1), math.Inf(-1), 0.0
		for r := range data {
			t := data[r].fIter[k]
			if t < lo {
				lo = t
			}
			if t > hi {
				hi = t
			}
			mean += t
		}
		mean /= float64(len(data))
		spreads[k] = SpreadPoint{Iter: k, T: mean, Spread: (hi - lo) / period}
		if spreads[k].Spread > a.Desync.PeakSpread {
			a.Desync.PeakSpread = spreads[k].Spread
		}
	}
	a.Desync.Spreads = spreads
	a.Desync.FinalSpread = spreads[iters-1].Spread
	// Final per-rank phase relative to the cross-rank mean at the last
	// aligned iteration.
	last := iters - 1
	var mean float64
	for r := range data {
		mean += data[r].fIter[last]
	}
	mean /= float64(len(data))
	for r := range data {
		a.Desync.FinalPhase = append(a.Desync.FinalPhase, (data[r].fIter[last]-mean)/period)
	}
	// Pre-fault spread and settling.  Without an observed injection the
	// whole run is "pre-fault" and settling is moot.
	if a.InjectTick < 0 {
		var s float64
		for k := range spreads {
			s += spreads[k].Spread
		}
		a.Desync.PreSpread = s / float64(len(spreads))
		return
	}
	// An iteration is pre-fault when every rank completed it before the
	// injection instant (baseline ticks compare against the baseline
	// injection tick).
	var s float64
	pre := 0
	for k := 0; k < iters; k++ {
		before := true
		for r := range data {
			if data[r].bIter[k] >= a.InjectTick {
				before = false
				break
			}
		}
		if !before {
			break
		}
		s += spreads[k].Spread
		pre++
	}
	if pre > 0 {
		a.Desync.PreSpread = s / float64(pre)
	}
	limit := settleFactor * a.Desync.PreSpread
	if limit <= 0 {
		// A perfectly synchronous pre-fault phase: settle when the spread
		// returns to (near) zero periods.
		limit = 0.05
	}
	for k := pre; k < iters; k++ {
		if spreads[k].Spread <= limit && spreads[k].T > a.InjectTick {
			a.Desync.SettleIter = k
			a.Desync.SettleTicks = spreads[k].T - a.InjectTick
			break
		}
	}
}

// FrontMatch compares the front one clock observed against the front a
// reference clock (canonically tsc) observed — the source paper's
// question asked one level up: does the logical timer see the delay
// propagate the way the physical clock does?
type FrontMatch struct {
	// BothObserved: both clocks saw a nonzero delay somewhere.
	BothObserved bool `json:"both_observed"`
	// ReachedEqual: the set of front-reached ranks is identical.
	ReachedEqual bool `json:"reached_equal"`
	// FrontIterEqual: every commonly reached rank crossed the threshold
	// in the same iteration.
	FrontIterEqual bool `json:"front_iter_equal"`
	// Reached / ReachedRef count reached ranks on each side.
	Reached    int `json:"reached"`
	ReachedRef int `json:"reached_ref"`
}

// MatchFront compares an analysis against a reference (typically tsc).
func MatchFront(mode, ref *Analysis) *FrontMatch {
	if mode == nil || ref == nil {
		return nil
	}
	fm := &FrontMatch{
		BothObserved: mode.Observed && ref.Observed,
		ReachedEqual: true, FrontIterEqual: true,
		Reached: mode.Reached, ReachedRef: ref.Reached,
	}
	n := len(mode.Ranks)
	if len(ref.Ranks) < n {
		n = len(ref.Ranks)
	}
	for r := 0; r < n; r++ {
		mReached := mode.Ranks[r].FrontTime >= 0
		rReached := ref.Ranks[r].FrontTime >= 0
		if mReached != rReached {
			fm.ReachedEqual = false
		}
		if mReached && rReached && mode.Ranks[r].FrontIter != ref.Ranks[r].FrontIter {
			fm.FrontIterEqual = false
		}
	}
	if len(mode.Ranks) != len(ref.Ranks) {
		fm.ReachedEqual = false
	}
	return fm
}

// Summary renders the one-line verdict used in study tables.
func (fm *FrontMatch) Summary() string {
	switch {
	case fm == nil:
		return "-"
	case !fm.BothObserved && fm.Reached == 0 && fm.ReachedRef > 0:
		return "sees nothing"
	case !fm.BothObserved:
		return "no front on either clock"
	case fm.ReachedEqual && fm.FrontIterEqual:
		return "matches"
	case fm.ReachedEqual:
		return "same ranks, shifted iterations"
	default:
		return fmt.Sprintf("differs (%d vs %d ranks)", fm.Reached, fm.ReachedRef)
	}
}
