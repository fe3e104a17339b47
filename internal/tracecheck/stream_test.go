package tracecheck

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// roundTrip writes a trace in the chunked file format and reads it back
// strictly.
func roundTrip(t *testing.T, tr *trace.Trace) *trace.Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChunked(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestVerifyStreamMatchesVerify asserts that verifying a trace read back
// from the chunked file format produces a report byte-identical (as
// JSON) to verifying the recorded trace — on clean traces and on every
// golden-violation trace in the suite.
func TestVerifyStreamMatchesVerify(t *testing.T) {
	cases := map[string]*trace.Trace{
		"clean-message": messageTrace().tr,
		"clean-omp":     ompTrace().tr,
	}
	// Perturbed traces: exercise every violation kind through both paths.
	{
		b := messageTrace()
		b.tr.Locs[1].Events[2].B = 99 // recv tag mismatch: unmatched + orphan
		cases["bad-tag"] = b.tr
	}
	{
		b := messageTrace()
		b.tr.Locs[1].Events[2].Time = 2 // breaks clock condition + monotonicity
		cases["clock-breach"] = b.tr
	}
	{
		b := ompTrace()
		b.tr.Locs[0].Events = b.tr.Locs[0].Events[:len(b.tr.Locs[0].Events)-2] // drop join+exit
		cases["unclosed"] = b.tr
	}
	for name, tr := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(Verify(tr, Options{}))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(Verify(roundTrip(t, tr), Options{}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("report after a file round trip differs:\n  recorded:   %s\n  round trip: %s", want, got)
			}
		})
	}
}
