package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckFileIsStrict verifies the committed mini trace, then the same
// file with five junk bytes inserted before its index record and the
// trailer re-pointed past them.  The reader meets the junk where it
// expects a record tag, and the file must fail.
func TestCheckFileIsStrict(t *testing.T) {
	clean := filepath.Join("..", "..", "internal", "obs", "perfetto", "testdata", "mini.ltrc")
	if !checkFile(clean, false, 0) {
		t.Fatal("the committed mini trace failed verification")
	}
	b, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	idx := binary.LittleEndian.Uint64(b[len(b)-12:])
	junk := append(append(append([]byte(nil), b[:idx]...), 7, 7, 7, 7, 7), b[idx:]...)
	binary.LittleEndian.PutUint64(junk[len(junk)-12:], idx+5)
	path := filepath.Join(t.TempDir(), "junk.ltrc")
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if checkFile(path, false, 0) {
		t.Fatal("a trace with junk between its records passed")
	}
}
