package obs

import "sync"

// Mark is one instant annotation on the virtual timeline — a fault
// injection firing, anything that happens at a point in virtual time
// rather than over a span.
type Mark struct {
	T      float64 // virtual time, seconds
	Name   string  // short label, e.g. "oneoff rank 2"
	Detail string  // free-form detail, e.g. "delay 5ms"
}

// Sample is one point of a counter track — a named quantity sampled at
// a virtual time, such as a shared resource's fluid-model capacity.
type Sample struct {
	T     float64 // virtual time, seconds
	Track string  // series name, e.g. "capacity node0/nic"
	Value float64
}

// Timeline collects observe-only annotations during an in-process run
// for the Perfetto export: fault-injection instants and resource
// capacity samples.  The simulation writes it through narrow hooks
// (vtime's capacity observer, the fault injector's mark hook) and never
// reads it back.  Methods are safe on a nil *Timeline and safe for
// concurrent use, although the vtime kernel is single-threaded.
type Timeline struct {
	mu      sync.Mutex
	marks   []Mark
	samples []Sample
}

// AddMark appends an instant annotation.  No-op on a nil timeline.
func (tl *Timeline) AddMark(t float64, name, detail string) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.marks = append(tl.marks, Mark{T: t, Name: name, Detail: detail})
}

// AddSample appends a counter-track sample.  No-op on a nil timeline.
func (tl *Timeline) AddSample(t float64, track string, v float64) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.samples = append(tl.samples, Sample{T: t, Track: track, Value: v})
}

// Marks returns a copy of the collected instant annotations in record
// order (nil on a nil timeline).
func (tl *Timeline) Marks() []Mark {
	if tl == nil {
		return nil
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return append([]Mark(nil), tl.marks...)
}

// Samples returns a copy of the collected counter samples in record
// order (nil on a nil timeline).
func (tl *Timeline) Samples() []Sample {
	if tl == nil {
		return nil
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return append([]Sample(nil), tl.samples...)
}
