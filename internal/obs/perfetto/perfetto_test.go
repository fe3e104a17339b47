package perfetto_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/miniapps/minife"
	"repro/internal/obs/perfetto"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "regenerate testdata/mini.ltrc and its golden JSON")

// miniTrace runs the committed artifact's configuration: a tiny
// 2-rank x 2-thread MiniFE solve, lt_stmt clock, seed 1, noise-free —
// small enough that its Perfetto JSON stays reviewable, rich enough to
// exercise regions, flows, collectives and fork/join.
func miniTrace(t *testing.T) *trace.Trace {
	t.Helper()
	mfe := minife.Default()
	mfe.Nx, mfe.CGIters = 6, 3
	spec := experiment.Spec{
		Name: "MiniFE-mini", Ranks: 2, Threads: 2, Nodes: 1,
		App: func(r *measure.Rank) experiment.AppResult {
			res := minife.Run(r, mfe)
			return experiment.AppResult{Check: res.Residual}
		},
		Description: "perfetto golden fixture",
	}
	cfg := measure.DefaultConfig(core.ModeStmt)
	res, err := experiment.RunWithOptions(spec, experiment.RunOptions{Cfg: &cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func export(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := perfetto.Export(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenMiniTrace pins the whole export chain byte-for-byte: the
// committed mini.ltrc must decode to the same events as a fresh
// simulation of its configuration (so the artifact cannot go stale
// behind a semantics change), and rendering it must equal the committed
// golden JSON (the same comparison CI's ltviz smoke performs).  Events,
// not file bytes, are compared: flate output is not promised stable
// across Go releases.  Run with -update after an intentional change to
// either side.
func TestGoldenMiniTrace(t *testing.T) {
	tracePath := filepath.Join("testdata", "mini.ltrc")
	goldenPath := filepath.Join("testdata", "mini.golden.json")
	live := miniTrace(t)
	if *update {
		var buf bytes.Buffer
		if err := trace.WriteChunked(&buf, live); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := trace.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, live) {
		t.Fatalf("committed %s (%d events) differs from a fresh simulation (%d events); run with -update if the semantics change was intentional",
			tracePath, committed.NumEvents(), live.NumEvents())
	}
	// Render through the same path ltviz uses for file input: the file
	// decoded by ChunkFile.Range over every stamp, exported with no
	// timeline.
	cf, err := trace.OpenChunkFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := cf.Range(0, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	got := export(t, decoded)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("export of %s differs from %s (%d vs %d bytes); run with -update if intentional",
			tracePath, goldenPath, len(got), len(want))
	}
}

// TestExportIsValidSortedJSON checks the structural promises the golden
// cannot: the output parses, object keys come out sorted (verified by
// re-marshalling each event with encoding/json's sorted map order), and
// every flow-finish id was opened by a flow-start.
func TestExportIsValidSortedJSON(t *testing.T) {
	out := export(t, miniTrace(t))
	var doc struct {
		DisplayTimeUnit string                       `json:"displayTimeUnit"`
		TraceEvents     []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	starts := map[string]bool{}
	var finishes []string
	phCount := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph := string(ev["ph"])
		phCount[ph]++
		switch ph {
		case `"s"`:
			starts[string(ev["id"])] = true
		case `"f"`:
			finishes = append(finishes, string(ev["id"]))
		}
	}
	if phCount[`"B"`] == 0 || phCount[`"B"`] != phCount[`"E"`] {
		t.Fatalf("unbalanced duration events: %d B vs %d E", phCount[`"B"`], phCount[`"E"`])
	}
	if len(starts) == 0 || len(finishes) == 0 {
		t.Fatalf("expected flow arrows, got %d starts and %d finishes", len(starts), len(finishes))
	}
	for _, id := range finishes {
		if !starts[id] {
			t.Fatalf("flow finish id %s has no start", id)
		}
	}
}

// TestExportDeterministic: same trace in, identical bytes out.
func TestExportDeterministic(t *testing.T) {
	tr := miniTrace(t)
	if a, b := export(t, tr), export(t, tr); !bytes.Equal(a, b) {
		t.Fatal("two exports of one trace differ")
	}
}

// TestFlowIDsAcrossUnmatchedMessages pins the flow numbering on a hand
// trace with one send nobody receives and one receive nobody sent:
// sends are numbered from 1 in (location, record) order, the unconsumed
// send keeps its id, a receive adopts the id of the oldest unconsumed
// send on its (src, dst, tag) channel, and the unmatched receive renders
// as an instant without an id.
func TestFlowIDsAcrossUnmatchedMessages(t *testing.T) {
	tr := trace.New("tsc")
	main := tr.Region("main", trace.RoleUser)
	l0 := tr.AddLocation(0, 0)
	l1 := tr.AddLocation(1, 0)
	ev := func(l int, kind trace.EvKind, ts uint64, a, b int32) {
		tr.Record(l, trace.Event{Kind: kind, Time: ts, Region: main, A: a, B: b, C: 8})
	}
	ev(l0, trace.EvEnter, 1, 0, 0)
	ev(l0, trace.EvSend, 2, 1, 0)
	ev(l0, trace.EvSend, 3, 1, 5) // never received
	ev(l0, trace.EvSend, 4, 1, 0)
	ev(l0, trace.EvRecv, 9, 1, 0)
	ev(l0, trace.EvExit, 10, 0, 0)
	ev(l1, trace.EvEnter, 1, 0, 0)
	ev(l1, trace.EvRecv, 2, 0, 7) // never sent
	ev(l1, trace.EvRecv, 5, 0, 0)
	ev(l1, trace.EvSend, 6, 0, 0)
	ev(l1, trace.EvRecv, 7, 0, 0)
	ev(l1, trace.EvExit, 8, 0, 0)

	var doc struct {
		TraceEvents []struct {
			ID   int    `json:"id"`
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(export(t, tr), &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "s" || e.Ph == "f" || e.Ph == "i" {
			got = append(got, fmt.Sprintf("%d %s %d %s", e.Pid, e.Ph, e.ID, e.Name))
		}
	}
	want := []string{
		"0 s 1 msg to 1 tag 0",
		"0 s 2 msg to 1 tag 5",
		"0 s 3 msg to 1 tag 0",
		"0 f 4 msg from 1 tag 0",
		"1 i 0 unmatched recv from 0 tag 7",
		"1 f 1 msg from 0 tag 0",
		"1 s 4 msg to 0 tag 0",
		"1 f 3 msg from 0 tag 0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flow events:\n got  %q\n want %q", got, want)
	}
}
