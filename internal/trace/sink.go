package trace

// Sink mirrors the trace-building API.  A sink installed on a *Trace
// receives every region definition, location and event as the
// measurement system records it, in recording order — the hook live
// observation uses to spill a growing run to disk (a *ChunkWriter
// satisfies Sink) while the in-memory trace stays the single source of
// truth for every artifact.  Because both sides intern regions and
// locations in call order, the ids a sink hands back always match the
// trace's own.
type Sink interface {
	Region(name string, role Role) RegionID
	AddLocation(rank, thread int) int
	Record(l int, e Event)
}

// SetSink installs (or, with nil, removes) a write-only mirror of the
// trace.  Definitions already interned are replayed into the sink in
// id order first, so a sink attached after setup still agrees on every
// RegionID and location index.
//
// The sink is strictly observe-only: nothing it does can flow back into
// the trace, so recorded bytes are identical with and without one (the
// live-observation identity test pins this).  Sinks are invoked
// synchronously from Record — the measurement hot path.
func (t *Trace) SetSink(s Sink) {
	t.sink = nil // mute the tee while replaying
	if s != nil {
		for _, r := range t.Regions {
			s.Region(r.Name, r.Role)
		}
		for li := range t.Locs {
			l := &t.Locs[li]
			s.AddLocation(l.Rank, l.Thread)
			for _, e := range l.Events {
				s.Record(li, e)
			}
		}
	}
	t.sink = s
}
