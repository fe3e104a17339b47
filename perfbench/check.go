package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"

	"repro/internal/experiment"
)

// The output check.  Every pass reduces its simulation outputs to one
// digest per checked unit — a study job's result, or a propagation
// study's JSON — and the units must equal the reference the workload set
// (set-up's fresh results, or the first pass), and for the default seed
// the committed golden digest.  Trace bytes stay out of the digest, so a
// change of trace encoding cannot trip it; so does rendered report text,
// which is not reproducible (see README.md, known defects).

// unit is one checked piece of a pass's output and the number of jobs it
// stands for.
type unit struct {
	digest string
	jobs   int
}

// outcome is what one pass produced, reduced for checking and counting.
type outcome struct {
	units      []unit
	jobs       int   // jobs attempted
	dropped    int   // jobs the pool dropped after their retry
	violations int   // traces with tracecheck violations
	misses     int   // cache misses where every job should have been served
	events     int64 // trace events recorded or served
}

// failures counts the jobs of o that failed: dropped, violating, missed
// where a hit was due, or digesting differently from want (nil want
// checks nothing).  The count never exceeds the jobs attempted.
func (o outcome) failures(want []unit) int {
	n := o.dropped + o.violations + o.misses
	if want != nil {
		if len(want) != len(o.units) {
			n = o.jobs
		} else {
			for i, u := range o.units {
				if u.digest != want[i].digest {
					n += u.jobs
				}
			}
		}
	}
	return min(n, o.jobs)
}

// combined folds the unit digests into the digest the golden file pins.
func combined(units []unit) string {
	h := sha256.New()
	for _, u := range units {
		io.WriteString(h, u.digest)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

//go:embed golden.json
var goldenJSON []byte

// goldenDigest returns the committed combined digest of a workload's
// full-size grid at the default seed.
func goldenDigest(key string) (string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	d, ok := g[key]
	if !ok {
		return "", fmt.Errorf("golden.json: no digest for %q", key)
	}
	return d, nil
}

func putString(h hash.Hash, s string) {
	var b [binary.MaxVarintLen64]byte
	h.Write(b[:binary.PutUvarint(b[:], uint64(len(s)))])
	io.WriteString(h, s)
}

func putFloat(h hash.Hash, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}

// runDigest hashes one job's outputs: mode, wall, sorted phases, checks,
// figure of merit and the analysis profile's canonical bytes.
func runDigest(r *experiment.RunResult) string {
	h := sha256.New()
	putString(h, string(r.Mode))
	putFloat(h, r.Wall)
	names := make([]string, 0, len(r.Phases))
	for name := range r.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		putString(h, name)
		putFloat(h, r.Phases[name])
	}
	for _, c := range r.Checks {
		putFloat(h, c)
	}
	putFloat(h, r.FoM)
	if r.Profile != nil {
		// Profile.Write into a hash cannot fail.
		_ = r.Profile.Write(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// studyOutcome reduces a study to its checked units (references, then
// modes in option order, each in repetition order, then the dropped
// list), its events and its trace-check violations.
func studyOutcome(st *experiment.Study) outcome {
	var o outcome
	add := func(r *experiment.RunResult) {
		o.units = append(o.units, unit{runDigest(r), 1})
		if r.Trace != nil {
			o.events += int64(r.Trace.NumEvents())
		}
	}
	for _, r := range st.Refs {
		add(r)
	}
	for _, m := range st.Opts.Modes {
		for _, r := range st.Runs[m] {
			add(r)
		}
	}
	for _, d := range st.Dropped {
		o.units = append(o.units, unit{fmt.Sprintf("dropped %s rep %d seed %d: %s", d.Mode, d.Rep, d.Seed, d.Err), 1})
	}
	o.jobs = len(o.units)
	o.dropped = len(st.Dropped)
	for _, tc := range st.TraceChecks {
		if tc.Report.NumViolations() > 0 {
			o.violations++
		}
	}
	return o
}

// add accumulates another outcome of the same pass.
func (o *outcome) add(p outcome) {
	o.units = append(o.units, p.units...)
	o.jobs += p.jobs
	o.dropped += p.dropped
	o.violations += p.violations
	o.misses += p.misses
	o.events += p.events
}

// failedStudy stands in for a study whose every job failed.
func failedStudy(name string, jobs int, err error) outcome {
	return outcome{
		units:   []unit{{fmt.Sprintf("failed %s: %v", name, err), jobs}},
		jobs:    jobs,
		dropped: jobs,
	}
}

// jsonUnit checks a propagation study by its deterministic JSON bytes.
func jsonUnit(st *experiment.PropagationStudy, jobs int) (unit, error) {
	h := sha256.New()
	if err := st.WriteJSON(h); err != nil {
		return unit{}, fmt.Errorf("propagation %s: %w", st.Spec, err)
	}
	return unit{hex.EncodeToString(h.Sum(nil)), jobs}, nil
}
