package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestReadRangeIsStrict reads a trace written by WriteChunked, whole and
// through a window, then the same file cut inside its last chunk: every
// read of the cut file must fail with a truncation error naming it, even
// a window the cut chunk does not overlap.
func TestReadRangeIsStrict(t *testing.T) {
	tr := trace.New("lt_stmt")
	reg := tr.Region("main", trace.RoleUser)
	for l := 0; l < 2; l++ {
		tr.AddLocation(l, 0)
		for i := 0; i < 100; i++ {
			tr.Record(l, trace.Event{Kind: trace.EvKind(i % 2), Time: uint64(1000*l + i), Region: reg})
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteChunked(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cf, err := trace.NewChunkFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	chunks := cf.Chunks()
	dir := t.TempDir()
	whole, cut := filepath.Join(dir, "whole.ltrc"), filepath.Join(dir, "cut.ltrc")
	if err := os.WriteFile(whole, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cut, buf.Bytes()[:chunks[len(chunks)-1].Offset+5], 0o644); err != nil {
		t.Fatal(err)
	}

	// Location 0's stamps are 0..99 and location 1's, in the last
	// chunk, 1000..1099.
	for _, w := range [][2]uint64{{0, math.MaxUint64}, {0, 99}} {
		got, err := readRange(whole, w[0], w[1])
		if err != nil {
			t.Fatalf("whole file, window %v: %v", w, err)
		}
		if want := map[uint64]int{99: 100, math.MaxUint64: 200}[w[1]]; got.NumEvents() != want {
			t.Fatalf("whole file, window %v: %d events, want %d", w, got.NumEvents(), want)
		}
		if _, err := readRange(cut, w[0], w[1]); !errors.Is(err, trace.ErrTruncated) || !strings.Contains(err.Error(), cut) {
			t.Fatalf("cut file, window %v: got %v, want ErrTruncated naming %s", w, err, cut)
		}
	}
}
