package tracecheck_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/trace"
	"repro/internal/tracecheck"
)

// TestPartialSuppressesEndDependentChecks builds the canonical live
// prefix by hand: the sender's location is fully sealed (send, exit and
// all), the receiver's stops before its Recv arrives.  Complete-trace
// verification must flag the imbalance; partial verification must stay
// silent, because the rest of the receiver's stream may still
// legitimately arrive.
func TestPartialSuppressesEndDependentChecks(t *testing.T) {
	tr := trace.New("lt_1")
	l0 := tr.AddLocation(0, 0)
	l1 := tr.AddLocation(1, 0)
	main := tr.Region("main", trace.RoleUser)
	send := tr.Region("MPI_Send", trace.RoleMPIP2P)
	tr.Record(l0, trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})
	tr.Record(l0, trace.Event{Kind: trace.EvEnter, Time: 10, Region: send})
	tr.Record(l0, trace.Event{Kind: trace.EvSend, Time: 15, A: 1, B: 3, C: 8})
	tr.Record(l0, trace.Event{Kind: trace.EvExit, Time: 20, Region: send})
	tr.Record(l0, trace.Event{Kind: trace.EvExit, Time: 100, Region: main})
	// Location 1 is sealed less far along: still inside main, its
	// matching Recv not yet on disk.
	tr.Record(l1, trace.Event{Kind: trace.EvEnter, Time: 0, Region: main})

	strict := tracecheck.Verify(tr, tracecheck.Options{})
	if strict.OK() {
		t.Fatal("complete-trace verification missed the orphan send and open region")
	}
	partial := tracecheck.Verify(tr, tracecheck.Options{Partial: true})
	if !partial.OK() {
		var sb bytes.Buffer
		partial.Render(&sb, 10)
		t.Fatalf("partial verification flagged a legitimate prefix:\n%s", sb.String())
	}
	if partial.Edges != 0 {
		t.Fatalf("no matched pairs exist, yet %d edges were reconstructed", partial.Edges)
	}
}

// TestPartialCleanOnEveryLivePrefix is the prefix-closure property on a
// real workload: spill a full mini-app run through an interleaved
// chunked writer (the live-observatory layout), cut the file at
// arbitrary byte offsets, recover each sealed prefix through the tail
// reader, and require partial verification to pass on every one —
// while at least one mid-run prefix must fail the complete-trace checks
// (otherwise Partial suppresses nothing and the test is vacuous).
func TestPartialCleanOnEveryLivePrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick simulation")
	}
	spec, err := experiment.SpecByName("MiniFE-1", experiment.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(spec, core.ModeStmt, 1, noise.Params{}, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace

	// Interleave events across locations round-robin with small chunks,
	// exactly how a live spill lands on disk.
	var buf bytes.Buffer
	cw := trace.NewChunkWriter(&buf, tr.Clock)
	cw.ChunkEvents = 128
	for _, r := range tr.Regions {
		cw.Region(r.Name, r.Role)
	}
	for _, l := range tr.Locs {
		cw.AddLocation(l.Rank, l.Thread)
	}
	for i := 0; ; i++ {
		wrote := false
		for li := range tr.Locs {
			if i < len(tr.Locs[li].Events) {
				cw.Record(li, tr.Locs[li].Events[i])
				wrote = true
			}
		}
		if !wrote {
			break
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	strictFailed := false
	for _, frac := range []int{5, 25, 50, 75, 95, 100} {
		cut := int64(len(full)) * int64(frac) / 100
		path := filepath.Join(t.TempDir(), "prefix.ltrc")
		if err := os.WriteFile(path, full[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		tc, err := trace.Follow(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tc.Poll(); err != nil {
			t.Fatalf("cut %d%%: %v", frac, err)
		}
		prefix, err := tc.Snapshot().Trace()
		if err != nil {
			t.Fatalf("cut %d%%: %v", frac, err)
		}
		rep := tracecheck.Verify(prefix, tracecheck.Options{Partial: true})
		if !rep.OK() {
			var sb bytes.Buffer
			rep.Render(&sb, 10)
			t.Errorf("cut %d%%: partial verification flagged a clean prefix:\n%s", frac, sb.String())
		}
		if frac < 100 && !strictFailed {
			if !tracecheck.Verify(prefix, tracecheck.Options{}).OK() {
				strictFailed = true
			}
		}
		tc.Close()
	}
	if !strictFailed {
		t.Error("no mid-run prefix failed the complete-trace checks; Partial suppressed nothing")
	}
}
