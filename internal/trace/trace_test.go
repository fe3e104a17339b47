package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegionInterning(t *testing.T) {
	tr := New("tsc")
	a := tr.Region("foo", RoleUser)
	b := tr.Region("bar", RoleMPIColl)
	c := tr.Region("foo", RoleUser)
	if a != c {
		t.Fatalf("re-registering foo gave new id %d != %d", c, a)
	}
	if a == b {
		t.Fatal("distinct regions share an id")
	}
	if tr.RegionName(b) != "bar" {
		t.Fatalf("region name = %q", tr.RegionName(b))
	}
}

func TestRegionRoleConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on role conflict")
		}
	}()
	tr := New("tsc")
	tr.Region("foo", RoleUser)
	tr.Region("foo", RoleMPIP2P)
}

func TestRoleClassification(t *testing.T) {
	if !RoleMPIP2P.IsMPI() || !RoleMPIColl.IsMPI() || !RoleMPIWait.IsMPI() {
		t.Fatal("MPI roles misclassified")
	}
	if RoleUser.IsMPI() || RoleOmpBarrier.IsMPI() {
		t.Fatal("non-MPI roles classified as MPI")
	}
	if !RoleOmpBarrier.IsOmp() || !RoleOmpMgmt.IsOmp() || !RoleOmpCritical.IsOmp() {
		t.Fatal("OMP roles misclassified")
	}
	if RoleOmpLoop.IsOmp() {
		t.Fatal("loop bodies are user computation, not OMP runtime")
	}
}

func TestKindAndRoleStrings(t *testing.T) {
	kinds := []EvKind{EvEnter, EvExit, EvSend, EvRecv, EvCollEnd, EvFork, EvJoin, EvBarrier}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") || seen[s] {
			t.Fatalf("kind %d has bad or duplicate string %q", k, s)
		}
		seen[s] = true
	}
	roles := []Role{RoleUser, RoleMPIP2P, RoleMPIColl, RoleMPIWait, RoleOmpMgmt,
		RoleOmpLoop, RoleOmpBarrier, RoleOmpCritical, RoleOmpParallel}
	seenR := map[string]bool{}
	for _, r := range roles {
		s := r.String()
		if s == "" || strings.HasPrefix(s, "role(") || seenR[s] {
			t.Fatalf("role %d has bad or duplicate string %q", r, s)
		}
		seenR[s] = true
	}
}

func sample() *Trace {
	tr := New("lt_stmt")
	main := tr.Region("main", RoleUser)
	send := tr.Region("MPI_Send", RoleMPIP2P)
	l0 := tr.AddLocation(0, 0)
	l1 := tr.AddLocation(1, 0)
	tr.Record(l0, Event{Kind: EvEnter, Time: 1, Region: main})
	tr.Record(l0, Event{Kind: EvEnter, Time: 5, Region: send})
	tr.Record(l0, Event{Kind: EvSend, Time: 6, A: 1, B: 9, C: 4096})
	tr.Record(l0, Event{Kind: EvExit, Time: 8, Region: send})
	tr.Record(l0, Event{Kind: EvExit, Time: 100, Region: main})
	tr.Record(l1, Event{Kind: EvEnter, Time: 2, Region: main})
	tr.Record(l1, Event{Kind: EvRecv, Time: 9, A: 0, B: 9, C: 4096})
	tr.Record(l1, Event{Kind: EvExit, Time: 90, Region: main})
	return tr
}

// TestRoundTrip writes a trace file and reads it back through ReadFile,
// the path the CLIs take.
func TestRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := WriteChunked(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rt.ltrc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Clock != tr.Clock {
		t.Fatalf("clock = %q, want %q", got.Clock, tr.Clock)
	}
	if len(got.Regions) != len(tr.Regions) {
		t.Fatalf("regions = %d, want %d", len(got.Regions), len(tr.Regions))
	}
	for i := range tr.Regions {
		if got.Regions[i] != tr.Regions[i] {
			t.Fatalf("region %d = %+v, want %+v", i, got.Regions[i], tr.Regions[i])
		}
	}
	if len(got.Locs) != len(tr.Locs) {
		t.Fatalf("locations = %d, want %d", len(got.Locs), len(tr.Locs))
	}
	for i := range tr.Locs {
		if got.Locs[i].Rank != tr.Locs[i].Rank || got.Locs[i].Thread != tr.Locs[i].Thread {
			t.Fatalf("location %d identity mismatch", i)
		}
		if len(got.Locs[i].Events) != len(tr.Locs[i].Events) {
			t.Fatalf("location %d: %d events, want %d", i, len(got.Locs[i].Events), len(tr.Locs[i].Events))
		}
		for j, e := range tr.Locs[i].Events {
			if got.Locs[i].Events[j] != e {
				t.Fatalf("event %d/%d = %+v, want %+v", i, j, got.Locs[i].Events[j], e)
			}
		}
	}
	if got.NumEvents() != tr.NumEvents() {
		t.Fatalf("NumEvents = %d, want %d", got.NumEvents(), tr.NumEvents())
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("XXXXgarbage")); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := WriteChunked(&buf, tr); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)/2])); err == nil {
		t.Fatal("expected truncation error")
	}
}

// Property: random traces survive a WriteChunked + Read round trip
// intact.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(rawEvents []uint32, rank, thread uint8) bool {
		tr := New("lt_1")
		reg := tr.Region("r", RoleUser)
		l := tr.AddLocation(int(rank), int(thread))
		var tm uint64
		for _, raw := range rawEvents {
			tm += uint64(raw % 1000)
			tr.Record(l, Event{
				Kind:   EvKind(raw % 8),
				Time:   tm,
				Region: reg,
				A:      int32(raw) - 500,
				B:      int32(raw % 17),
				C:      int64(raw)*3 - 1000,
			})
		}
		var buf bytes.Buffer
		if err := WriteChunked(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Locs[0].Events) != len(tr.Locs[0].Events) {
			return false
		}
		for i, e := range tr.Locs[0].Events {
			if got.Locs[0].Events[i] != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
