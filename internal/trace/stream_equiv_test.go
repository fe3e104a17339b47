package trace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/obs/perfetto"
	"repro/internal/scalasca"
	"repro/internal/trace"
	"repro/internal/tracecheck"
)

// TestStreamedAnalysisMatchesMaterialized is the determinism contract
// for the chunked trace file: every analysis must produce byte-identical
// output on a recorded trace and on the same trace written in small
// chunks and read back.  For a sample of the golden grid it checks
// four equalities — the trace after the round trip, the Scalasca
// profile, the tracecheck report and the perfetto export.  Any
// chunk-boundary bug in the decoder (a dropped event, a delta-decode
// restart error, a reordered match) lands here instead of skewing the
// paper's tables.
func TestStreamedAnalysisMatchesMaterialized(t *testing.T) {
	cases := []struct {
		app  string
		mode core.Mode
	}{
		{"MiniFE-1", core.ModeStmt},
		{"Ring-16", core.ModeTSC},
		{"TeaLeaf-1", core.ModeBB},
	}
	for _, tc := range cases {
		name := tc.app + "/" + string(tc.mode)
		spec, err := experiment.SpecByName(tc.app, experiment.Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiment.Run(spec, tc.mode, 1, noise.Cluster(), true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := res.Trace

		// 64-event chunks put several chunk boundaries in every location;
		// WriteChunked's 4096 would put none in these quick traces, whose
		// locations hold at most 1,110 events.
		var chunked bytes.Buffer
		if err := trace.WriteChunkedN(&chunked, tr, 64); err != nil {
			t.Fatalf("%s: writing chunked: %v", name, err)
		}
		rt, err := trace.Read(&chunked)
		if err != nil {
			t.Fatalf("%s: reading chunked: %v", name, err)
		}

		// Round-trip fidelity: the read trace holds the exact events of
		// the original.
		if !reflect.DeepEqual(rt, tr) {
			t.Errorf("%s: chunked round-trip drifted from the original trace", name)
		}

		// Scalasca replay.
		var profiles [2]bytes.Buffer
		for i, x := range []*trace.Trace{tr, rt} {
			p, err := scalasca.Analyze(x)
			if err != nil {
				t.Fatalf("%s: analyze: %v", name, err)
			}
			if err := p.Write(&profiles[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(profiles[0].Bytes(), profiles[1].Bytes()) {
			t.Errorf("%s: scalasca profile after the round trip differs", name)
		}

		// Tracecheck verdicts.
		rm, err := json.Marshal(tracecheck.Verify(tr, tracecheck.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		rr, err := json.Marshal(tracecheck.Verify(rt, tracecheck.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rm, rr) {
			t.Errorf("%s: tracecheck report after the round trip differs:\n  recorded   %s\n  round trip %s",
				name, rm, rr)
		}

		// Perfetto export.
		var exports [2]bytes.Buffer
		for i, x := range []*trace.Trace{tr, rt} {
			if err := perfetto.Export(&exports[i], x, nil); err != nil {
				t.Fatalf("%s: export: %v", name, err)
			}
		}
		if !bytes.Equal(exports[0].Bytes(), exports[1].Bytes()) {
			t.Errorf("%s: perfetto export after the round trip differs", name)
		}
	}
}
