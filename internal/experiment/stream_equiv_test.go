package experiment

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/obs/perfetto"
	"repro/internal/scalasca"
	"repro/internal/trace"
	"repro/internal/tracecheck"
)

// TestStreamedAnalysisMatchesMaterialized is the determinism contract
// for the chunked trace pipeline: every analysis consumer must produce
// byte-identical output whether it materializes the trace in memory or
// streams it chunk by chunk from the round-tripped on-disk form.  For a
// sample of the golden grid it checks four equalities — the trace
// fingerprint after a chunked round-trip, the Scalasca profile, the
// tracecheck report and the perfetto export.  Any window-boundary bug
// in the cursor layer (a dropped event, a delta-decode restart error, a
// reordered match) lands here instead of skewing the paper's tables.
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
		spec, err := SpecByName(tc.app, Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(spec, tc.mode, 1, noise.Cluster(), true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := res.Trace

		var chunked bytes.Buffer
		if err := trace.WriteChunked(&chunked, tr); err != nil {
			t.Fatalf("%s: writing chunked: %v", name, err)
		}
		cf, err := trace.NewChunkFile(bytes.NewReader(chunked.Bytes()), int64(chunked.Len()))
		if err != nil {
			t.Fatalf("%s: opening chunked: %v", name, err)
		}

		// Round-trip fidelity: materializing the chunked form must
		// reproduce the exact events of the original trace.
		mat, err := cf.Stream().Materialize()
		if err != nil {
			t.Fatalf("%s: materializing: %v", name, err)
		}
		if traceSum(mat) != traceSum(tr) {
			t.Errorf("%s: chunked round-trip drifted from the original trace", name)
		}

		// Scalasca replay: in-memory versus streamed-from-disk.
		pm, err := scalasca.Analyze(tr)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		ps, err := scalasca.AnalyzeStream(cf.Stream())
		if err != nil {
			t.Fatalf("%s: analyze stream: %v", name, err)
		}
		var bm, bs bytes.Buffer
		if err := pm.Write(&bm); err != nil {
			t.Fatal(err)
		}
		if err := ps.Write(&bs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bm.Bytes(), bs.Bytes()) {
			t.Errorf("%s: streamed scalasca profile differs from materialized", name)
		}

		// Tracecheck verdicts.
		rm, err := json.Marshal(tracecheck.Verify(tr, tracecheck.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := json.Marshal(tracecheck.VerifyStream(cf.Stream(), tracecheck.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rm, rs) {
			t.Errorf("%s: streamed tracecheck report differs from materialized:\n  mat    %s\n  stream %s",
				name, rm, rs)
		}

		// Perfetto export.
		var em, es bytes.Buffer
		if err := perfetto.ExportStream(&em, trace.StreamTrace(tr), nil); err != nil {
			t.Fatalf("%s: export: %v", name, err)
		}
		if err := perfetto.ExportStream(&es, cf.Stream(), nil); err != nil {
			t.Fatalf("%s: export stream: %v", name, err)
		}
		if !bytes.Equal(em.Bytes(), es.Bytes()) {
			t.Errorf("%s: streamed perfetto export differs from materialized", name)
		}
	}
}
