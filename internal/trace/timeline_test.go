package trace

import (
	"bytes"
	"strings"
	"testing"
)

func timelineTrace() *Trace {
	tr := New("tsc")
	main := tr.Region("main", RoleUser)
	mpi := tr.Region("MPI_Recv", RoleMPIP2P)
	l := tr.AddLocation(0, 0)
	// 0..500 compute, 500..1000 MPI.
	tr.Record(l, Event{Kind: EvEnter, Time: 0, Region: main})
	tr.Record(l, Event{Kind: EvEnter, Time: 500, Region: mpi})
	tr.Record(l, Event{Kind: EvExit, Time: 1000, Region: mpi})
	tr.Record(l, Event{Kind: EvExit, Time: 1000, Region: main})
	return tr
}

func TestRenderTimelineShape(t *testing.T) {
	var buf bytes.Buffer
	RenderTimeline(&buf, timelineTrace(), 20, 0)
	out := buf.String()
	if !strings.Contains(out, "legend") {
		t.Fatalf("missing legend:\n%s", out)
	}
	// Find the row and check the halves.
	var row string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "r0") {
			row = line
		}
	}
	if row == "" {
		t.Fatalf("no location row:\n%s", out)
	}
	cells := row[strings.Index(row, "|")+1 : strings.LastIndex(row, "|")]
	if len(cells) != 20 {
		t.Fatalf("row width %d, want 20", len(cells))
	}
	if cells[2] != '#' || cells[7] != '#' {
		t.Fatalf("first half should be compute: %q", cells)
	}
	if cells[12] != 'M' || cells[18] != 'M' {
		t.Fatalf("second half should be MPI: %q", cells)
	}
}

func TestRenderTimelineEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	RenderTimeline(&buf, New("tsc"), 40, 0)
	if !strings.Contains(buf.String(), "empty") {
		t.Fatalf("empty trace not reported: %s", buf.String())
	}
}

func TestRenderTimelineCapsRows(t *testing.T) {
	tr := timelineTrace()
	main, _ := tr.regionIDs["main"]
	for i := 1; i < 5; i++ {
		l := tr.AddLocation(i, 0)
		tr.Record(l, Event{Kind: EvEnter, Time: 0, Region: main})
		tr.Record(l, Event{Kind: EvExit, Time: 1000, Region: main})
	}
	var buf bytes.Buffer
	RenderTimeline(&buf, tr, 20, 2)
	if !strings.Contains(buf.String(), "3 more locations") {
		t.Fatalf("row cap not reported:\n%s", buf.String())
	}
}
