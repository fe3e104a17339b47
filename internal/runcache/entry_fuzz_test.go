package runcache

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/scalasca"
)

// fullEntry is sampleEntry plus an applied-fault log and a critical
// path: every section of the entry format is populated.
func fullEntry() *Entry {
	e := sampleEntry()
	e.Applied = []faults.AppliedFault{
		{Kind: "oneoff", Rank: 2, Core: -1, At: 0.5, Magnitude: 0.2},
		{Kind: "membw", Rank: -1, Core: 3, Resource: "membw0", At: 1e-3, Magnitude: 0.25},
	}
	e.CritPath = &scalasca.CritPath{
		Total:    20,
		Segments: 3,
		ByPath:   map[string]float64{"solve": 12.5, "main/solve/MPI_Allreduce": 7.5},
	}
	return e
}

func mustEncode(t testing.TB, e *Entry) []byte {
	t.Helper()
	b, err := encodeEntry(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// hasNaN reports whether any float field of e is NaN, which deep
// equality (==) cannot compare with itself.
func hasNaN(e *Entry) bool {
	nan := math.IsNaN(e.Wall) || math.IsNaN(e.FoM)
	for _, v := range e.Phases {
		nan = nan || math.IsNaN(v)
	}
	for _, v := range e.Checks {
		nan = nan || math.IsNaN(v)
	}
	for _, a := range e.Applied {
		nan = nan || math.IsNaN(a.At) || math.IsNaN(a.Magnitude)
	}
	if cp := e.CritPath; cp != nil {
		nan = nan || math.IsNaN(cp.Total)
		for _, v := range cp.ByPath {
			nan = nan || math.IsNaN(v)
		}
	}
	return nan
}

// FuzzDecodeEntry feeds arbitrary bytes to the entry decoder, with and
// without the trace.  It must never panic.  Any entry the traced decode
// accepts, the trace-free decode must accept too, with a nil trace and
// every other field equal; and it must re-encode to bytes that decode
// to a deep-equal entry (and re-encode to the same bytes).  The
// committed corpus under testdata/fuzz/FuzzDecodeEntry holds the
// encoding of fullEntry, the same entry as it was encoded before the
// critical-path section existed, truncations of both (two inside the
// profile section, one inside the path section), the older encoding
// with a bitmap bit past its profile record's values, fullEntry with
// the unknown flag bit 3 set, hugeModeEntry, and fullEntry as version 3
// wrote it.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		free, freeErr := decodeEntry(data, nil)
		e, err := decodeEntry(data, always)
		if err != nil {
			return
		}
		if freeErr != nil {
			t.Fatalf("the trace-free decode rejects an entry the traced decode accepts: %v", freeErr)
		}
		withoutTrace := *e
		withoutTrace.Trace = nil
		if free.Trace != nil || (!hasNaN(e) && !reflect.DeepEqual(free, &withoutTrace)) {
			t.Fatalf("the trace-free decode differs beyond the trace:\n%+v\n%+v", free, e)
		}
		again := mustEncode(t, e)
		e2, err := decodeEntry(again, always)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if !bytes.Equal(mustEncode(t, e2), again) {
			t.Fatal("re-encoding is not a fixed point")
		}
		if !hasNaN(e) && !reflect.DeepEqual(e, e2) {
			t.Fatalf("round trip changed the entry:\n%+v\n%+v", e, e2)
		}
	})
}

// TestCommittedEntrySeeds pins what the committed corpus seeds are for:
// the current full entry is fullEntry's encoding and decodes to
// fullEntry (without its trace in the
// trace-free decode), the entry written before the critical-path section
// existed decodes to fullEntry without its path, and every other seed,
// the version-3 entry and the unknown flag bit among them, is rejected
// both ways.
func TestCommittedEntrySeeds(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzDecodeEntry/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", file)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, withTrace := range []bool{true, false} {
			want := fullEntry()
			if !withTrace {
				want.Trace = nil
			}
			e, err := decodeEntry([]byte(data), traceIf(withTrace))
			switch name := filepath.Base(file); {
			case name == "full-entry":
				if err != nil || !reflect.DeepEqual(e, want) {
					t.Errorf("%s (withTrace %t): does not decode to fullEntry (%v)", name, withTrace, err)
				}
				// The encoding is a function of the entry, whatever order
				// its maps iterate in.
				for i := 0; i < 10; i++ {
					if !bytes.Equal(mustEncode(t, fullEntry()), []byte(data)) {
						t.Fatalf("%s: not fullEntry's encoding", name)
					}
				}
			case name == "full-entry-no-critpath":
				want.CritPath = nil
				if err != nil || !reflect.DeepEqual(e, want) {
					t.Errorf("%s (withTrace %t): does not decode to fullEntry without its path (%v)", name, withTrace, err)
				}
			case err == nil:
				t.Errorf("%s (withTrace %t): accepted", name, withTrace)
			case name == "v3-full-entry" && !strings.Contains(err.Error(), "version 3"):
				t.Errorf("%s (withTrace %t): rejected for %v, not for its version", name, withTrace, err)
			}
		}
	}
}
