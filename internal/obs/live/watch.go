// Package live is the run observatory: it follows a chunked trace file
// while the simulation is still writing it, decodes the sealed prefix on
// every request, re-runs the wait-state analysis and the invariant
// checker over it, and serves the results — together with the metrics
// registry and the study progress — over a small HTTP surface.
//
// Observation is strictly read-only.  The watcher opens the trace file
// for reading only, every analysis runs over an immutable snapshot of
// the sealed prefix, and nothing in this package hands a handle back to
// the simulation: a run with the observatory attached produces byte-
// identical traces, profiles and study JSON to a run without it
// (asserted by internal/experiment's identity tests).
package live

import (
	"sort"
	"sync"

	"repro/internal/cube"
	"repro/internal/scalasca"
	"repro/internal/trace"
	"repro/internal/tracecheck"
)

// Watcher tails one chunked trace file and derives analyses from its
// sealed prefix.  All methods are safe for concurrent use; each
// analysis works on an immutable snapshot, so a slow HTTP client never
// blocks the poll loop (or the writer, which the watcher never touches
// at all).
type Watcher struct {
	mu sync.Mutex
	tc *trace.TailCursor
}

// Watch opens the trace at path for following.  The file must already
// exist (its header may still be incomplete; polling tolerates that).
func Watch(path string) (*Watcher, error) {
	tc, err := trace.Follow(path)
	if err != nil {
		return nil, err
	}
	return &Watcher{tc: tc}, nil
}

// Poll ingests whatever the writer has sealed since the last call.  See
// trace.TailCursor.Poll for the torn/damage semantics.
func (w *Watcher) Poll() (newChunks int, done bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tc.Poll()
}

// Trace decodes the sealed prefix from an immutable snapshot of it, for
// export consumers (perfetto).
func (w *Watcher) Trace() (*trace.Trace, error) {
	w.mu.Lock()
	cf := w.tc.Snapshot()
	w.mu.Unlock()
	return cf.Trace()
}

// Done reports whether the trailer has been ingested (the trace is
// complete and sealed).
func (w *Watcher) Done() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tc.Done()
}

// Close releases the underlying file.  Pending snapshots keep working
// until garbage collected only if the OS keeps the mapping; callers
// should finish analyses before closing.
func (w *Watcher) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tc.Close()
}

// Profile runs the wait-state analysis over the current sealed prefix
// and returns the profile.  Once the tail is done this is exactly the
// post-mortem scalasca.Analyze result.
func (w *Watcher) Profile() (*cube.Profile, error) {
	tr, err := w.Trace()
	if err != nil {
		return nil, err
	}
	return scalasca.AnalyzePartial(tr)
}

// waitMetrics are the wait-state metrics surfaced in a WaitSummary,
// with the paper's §V terminology.
var waitMetrics = []string{
	scalasca.MLateSender,
	scalasca.MLateReceiver,
	scalasca.MWaitNxN,
	scalasca.MWaitBarrier,
	scalasca.MBarrierWait,
	scalasca.MIdleThreads,
	scalasca.MDelayNxN,
	scalasca.MDelayLateSender,
}

// PathShare is one call path's share of a wait metric.
type PathShare struct {
	Metric  string  `json:"metric"`
	Path    string  `json:"path"`
	Percent float64 `json:"percent"`
}

// WaitSummary is the observatory's incremental wait-state and
// invariant view of a run, as served by /waitstates.  Totals are in
// ticks of the trace's clock.  The summary is monotone while the run
// progresses (events, chunks and wait totals only grow) and converges
// to the post-mortem analysis on the final poll after the trailer
// lands.
type WaitSummary struct {
	Clock  string `json:"clock"`
	Done   bool   `json:"done"`
	Events int    `json:"events"`
	Chunks int    `json:"chunks"`
	Locs   int    `json:"locations"`
	Offset int64  `json:"offset"` // sealed bytes ingested so far

	// Torn reports a transient cut at the tail (writer mid-record);
	// Damage a sticky structural error.  Both empty when clean.
	Torn   string `json:"torn,omitempty"`
	Damage string `json:"damage,omitempty"`

	// TimeTotal is the aggregated time metric; Waits the wait-state
	// totals by metric name (only non-zero metrics appear).
	TimeTotal float64            `json:"time_total"`
	Waits     map[string]float64 `json:"waits,omitempty"`
	// TopWaitPaths lists the dominant call paths per non-zero wait
	// metric, worst first.
	TopWaitPaths []PathShare `json:"top_wait_paths,omitempty"`

	// Violations counts invariant breaches by kind over the sealed
	// prefix (prefix-closed checks only until Done).
	Violations     map[string]int `json:"violations,omitempty"`
	ViolationTotal int            `json:"violation_total"`

	// AnalyzeError is set when the sealed prefix does not decode (a
	// damaged chunk) or the wait-state replay fails.  The storage
	// counters (events, chunks, offset) stay valid; a prefix that does
	// not decode counts no violations.
	AnalyzeError string `json:"analyze_error,omitempty"`
}

// WaitStates polls the tail and computes the incremental summary over
// the sealed prefix.  It never returns an error for torn or damaged
// tails — those surface inside the summary — only for I/O failures
// reaching the file.
func (w *Watcher) WaitStates() (*WaitSummary, error) {
	w.mu.Lock()
	if _, _, err := w.tc.Poll(); err != nil && w.tc.Err() == nil {
		w.mu.Unlock()
		return nil, err
	}
	s := &WaitSummary{
		Clock:  w.tc.Clock(),
		Done:   w.tc.Done(),
		Events: w.tc.Events(),
		Chunks: w.tc.NumChunks(),
		Offset: w.tc.Offset(),
	}
	if te := w.tc.Torn(); te != nil {
		s.Torn = te.Error()
	}
	if de := w.tc.Err(); de != nil {
		s.Damage = de.Error()
	}
	cf := w.tc.Snapshot()
	w.mu.Unlock()

	s.Locs = len(cf.Locs())
	summarize(s, cf)
	return s, nil
}

// summarize fills the analysis sections of s from the sealed prefix cf.
func summarize(s *WaitSummary, cf *trace.ChunkFile) {
	tr, err := cf.Trace()
	if err != nil {
		s.AnalyzeError = err.Error()
		return
	}
	prof, err := scalasca.AnalyzePartial(tr)
	if err != nil {
		s.AnalyzeError = err.Error()
	} else {
		s.TimeTotal = prof.TotalByName(scalasca.MTime)
		for _, m := range waitMetrics {
			v := prof.TotalByName(m)
			if v == 0 {
				continue
			}
			if s.Waits == nil {
				s.Waits = make(map[string]float64)
			}
			s.Waits[m] = v
			for _, ps := range prof.TopPaths(m, 3) {
				s.TopWaitPaths = append(s.TopWaitPaths, PathShare{
					Metric: m, Path: ps.Path, Percent: ps.Percent,
				})
			}
		}
		// waitMetrics order is fixed, so the slice is already grouped by
		// metric; sort within the whole slice for a stable worst-first
		// ranking across metrics.
		sort.SliceStable(s.TopWaitPaths, func(i, j int) bool {
			return s.TopWaitPaths[i].Percent > s.TopWaitPaths[j].Percent
		})
	}

	rep := tracecheck.Verify(tr, tracecheck.Options{Partial: !s.Done})
	s.ViolationTotal = rep.NumViolations()
	for k, n := range rep.Counts {
		if s.Violations == nil {
			s.Violations = make(map[string]int)
		}
		s.Violations[string(k)] = n
	}
}
