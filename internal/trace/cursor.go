package trace

import "io"

// Cursor iterates one location's events in recording order without
// requiring the whole stream in memory.  The iteration protocol is the
// bufio.Scanner shape:
//
//	cur := st.Cursor(loc)
//	for e, ok := cur.Next(); ok; e, ok = cur.Next() { ... }
//	if err := cur.Err(); err != nil { ... }
//
// A cursor's window buffer is reused between refills; callers must not
// retain the Event past the next call to Next.
type Cursor struct {
	win  []Event
	i    int
	done bool
	err  error
	// refill loads the next window into c.win.  It returns io.EOF when
	// the stream is exhausted; any other error ends iteration and is
	// reported by Err.
	refill func(c *Cursor) error
}

// Next returns the next event, or ok=false at end of stream (or on
// error — check Err afterwards).
func (c *Cursor) Next() (Event, bool) {
	for c.i >= len(c.win) {
		if c.done || c.refill == nil {
			return Event{}, false
		}
		c.win = c.win[:0]
		c.i = 0
		if err := c.refill(c); err != nil {
			if err != io.EOF {
				c.err = err
			}
			c.done = true
			return Event{}, false
		}
	}
	e := c.win[c.i]
	c.i++
	return e, true
}

// window is Next for a whole window at a time: it consumes and returns
// every event left in the current window, refilling it first when it is
// used up.  It returns false where Next would.  The slice is the
// cursor's buffer, valid until the next call.
func (c *Cursor) window() ([]Event, bool) {
	if _, ok := c.Next(); !ok {
		return nil, false
	}
	win := c.win[c.i-1:]
	c.i = len(c.win)
	return win, true
}

// Err returns the first error encountered by Next, if any.  A clean end
// of stream is not an error.
func (c *Cursor) Err() error { return c.err }

// LocInfo is the per-location metadata of a stream: the identity of the
// location and how many events its cursor yields.
type LocInfo struct {
	Rank, Thread int
	Events       int
}

// Stream is the streaming view of a trace: the same clock name, region
// table and location identities as *Trace, but event access goes
// through per-location cursors that can be opened (and re-opened) on
// demand.  Streams are produced by StreamTrace (memory-backed, zero
// copy) and by (*ChunkFile).Stream (file-backed, one chunk in memory at
// a time), so analyses written against Stream run identically on both.
type Stream struct {
	Clock   string
	Regions []RegionDef
	locs    []LocInfo
	open    func(loc int) *Cursor
}

// NumLocs returns the number of locations.
func (s *Stream) NumLocs() int { return len(s.locs) }

// Loc returns location i's metadata.
func (s *Stream) Loc(i int) LocInfo { return s.locs[i] }

// NumEvents returns the total number of events across all locations.
func (s *Stream) NumEvents() int {
	n := 0
	for _, l := range s.locs {
		n += l.Events
	}
	return n
}

// Cursor opens a fresh cursor over location loc.  Cursors are
// independent: opening a second cursor restarts from the beginning.
func (s *Stream) Cursor(loc int) *Cursor { return s.open(loc) }

// StreamTrace wraps a materialized trace in the Stream interface.  The
// cursors yield the trace's own event slices (one whole-slice window,
// zero copies), so streaming consumers pay nothing over direct slice
// iteration.
func StreamTrace(t *Trace) *Stream {
	locs := make([]LocInfo, len(t.Locs))
	for i, l := range t.Locs {
		locs[i] = LocInfo{Rank: l.Rank, Thread: l.Thread, Events: len(l.Events)}
	}
	return &Stream{
		Clock:   t.Clock,
		Regions: t.Regions,
		locs:    locs,
		open: func(loc int) *Cursor {
			events := t.Locs[loc].Events
			first := true
			return &Cursor{refill: func(c *Cursor) error {
				if !first {
					return io.EOF
				}
				first = false
				c.win = events
				return nil
			}}
		},
	}
}

// maxPresize caps how many events Materialize reserves per location up
// front: a file's event counts are claims until its chunks decode, and a
// corrupt count must not size an allocation.  Longer locations grow as
// their events arrive.
const maxPresize = 1 << 16

// Materialize reads the whole stream back into a *Trace.  It is the
// bridge for analyses that genuinely need random access (critical-path
// search); everything else should iterate cursors.
func (s *Stream) Materialize() (*Trace, error) {
	t := New(s.Clock)
	for _, r := range s.Regions {
		if err := t.internRegion(r.Name, r.Role); err != nil {
			return nil, err
		}
	}
	for i, li := range s.locs {
		l := t.AddLocation(li.Rank, li.Thread)
		if li.Events > 0 {
			t.Locs[l].Events = make([]Event, 0, min(li.Events, maxPresize))
		}
		cur := s.Cursor(i)
		for win, ok := cur.window(); ok; win, ok = cur.window() {
			t.Locs[l].Events = append(t.Locs[l].Events, win...)
		}
		if err := cur.Err(); err != nil {
			return nil, err
		}
	}
	return t, nil
}
