package runcache

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// fullEntry is sampleEntry plus an applied-fault log: every section of
// the entry format is populated.
func fullEntry() *Entry {
	e := sampleEntry()
	e.Applied = []AppliedFault{
		{Kind: "oneoff", Rank: 2, Core: -1, At: 0.5, Magnitude: 0.2},
		{Kind: "membw", Rank: -1, Core: 3, Resource: "membw0", At: 1e-3, Magnitude: 0.25},
	}
	return e
}

func mustEncode(t testing.TB, e *Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeEntry(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	return nan
}

// FuzzDecodeEntry feeds arbitrary bytes to the entry decoder.  It must
// never panic, and any entry it accepts must re-encode to bytes that
// decode to a deep-equal entry (and re-encode to the same bytes).  The
// committed corpus under testdata/fuzz/FuzzDecodeEntry holds the
// encoding of fullEntry, truncations of it, and hugeModeEntry.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEntry(data)
		if err != nil {
			return
		}
		again := mustEncode(t, e)
		e2, err := decodeEntry(again)
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
