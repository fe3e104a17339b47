package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestStatFileIsStrict runs -stat on a trace written by WriteChunked and
// on the same file cut inside its last chunk: the cut file must fail
// with a truncation error naming it, not print what survives.
func TestStatFileIsStrict(t *testing.T) {
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

	if err := statFile(whole); err != nil {
		t.Fatalf("whole file: %v", err)
	}
	if err := statFile(cut); !errors.Is(err, trace.ErrTruncated) || !strings.Contains(err.Error(), cut) {
		t.Fatalf("cut file: got %v, want ErrTruncated naming %s", err, cut)
	}
}
