package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrTruncated reports a trace file that ends mid-stream.  Errors from
// Read wrap it, so callers can distinguish a cut-off file (retry, rerun)
// from a corrupt one (bad magic, wrong version, implausible counts).
var ErrTruncated = errors.New("trace: truncated event stream")

// Sanity caps for count fields: a corrupted varint must fail with a
// clear error instead of a multi-gigabyte allocation.
const (
	maxStringLen = 1 << 20
	maxRegions   = 1 << 20
	maxLocations = 1 << 24
)

// internRegion is (*Trace).Region for decode paths: a region table with
// a duplicate name is corrupt input and must surface as an error, not as
// Region's programmer-error panic or a silently shifted region id.
func (t *Trace) internRegion(name string, role Role) error {
	if id, ok := t.regionIDs[name]; ok {
		return fmt.Errorf("trace: region %q defined twice (roles %v and %v)",
			name, t.Regions[id].Role, role)
	}
	t.Region(name, role)
	return nil
}

// RecordError pinpoints the record being decoded when a trace read
// fails mid-stream: as far as they are known, the location index, its
// rank and thread, the chunk and its file offset.  It wraps the
// underlying failure, so errors.Is(err, ErrTruncated) still detects a
// cut-off file, and analyses like ltlint can report the exact offending
// record of a partially corrupted trace.
type RecordError struct {
	// Path is the trace file being read, when known.  Read leaves it
	// empty (an io.Reader has no name); ReadFile and OpenChunkFile fill
	// it in, so batch tools reading many traces report which file held
	// the bad record.
	Path string
	// Loc indexes the location table; -1 when unknown (a defs or index
	// record, or a chunk header cut before its location field).
	Loc int
	// Rank and Thread are the location's when it is in the table,
	// which Chunk > 0 marks.
	Rank   int
	Thread int
	Event  int // zero-based index, within the location, of the chunk's first event
	Events int // Event plus the chunk's declared event count
	// Chunk is the one-based chunk ordinal within the location, or 0
	// when the failing record is not a chunk (a defs or index record)
	// or its location is unknown or not in the table.
	Chunk int
	// Offset is the file offset of the offending record's tag byte; 0
	// means unknown.
	Offset int64
	Err    error
}

func (e *RecordError) Error() string {
	var at []string
	switch {
	case e.Chunk > 0:
		at = append(at, fmt.Sprintf("location %d (rank %d thread %d) chunk %d", e.Loc, e.Rank, e.Thread, e.Chunk))
	case e.Loc >= 0:
		at = append(at, fmt.Sprintf("location %d", e.Loc))
	}
	if e.Offset > 0 {
		at = append(at, fmt.Sprintf("offset %d", e.Offset))
	}
	msg := fmt.Sprint(e.Err)
	if len(at) > 0 {
		msg = strings.Join(at, " ") + ": " + msg
	}
	if e.Path != "" {
		msg = e.Path + ": " + msg
	}
	return msg
}

func (e *RecordError) Unwrap() error { return e.Err }

// withPath stamps path onto err: a *RecordError carries it in its Path
// field, any other error is wrapped with it.
func withPath(path string, err error) error {
	var re *RecordError
	if errors.As(err, &re) {
		re.Path = path
		return err
	}
	return fmt.Errorf("%s: %w", path, err)
}

// ReadFile reads a complete trace from a file.  It is Read plus
// provenance: every failure names the file, so multi-file tools
// (lttrace) report the offending file without extra bookkeeping.
func ReadFile(path string) (*Trace, error) {
	cf, err := OpenChunkFile(path)
	if err != nil {
		return nil, err
	}
	t, err := cf.Trace()
	if err != nil {
		return nil, withPath(path, err)
	}
	return t, nil
}

// Read decodes a trace written by WriteChunked: NewChunkFile over the
// reader's bytes, then ChunkFile.Trace.  It succeeds only on a complete
// file whose every chunk decodes, and fails with a precise diagnostic —
// bad magic, unsupported version, implausible count, an
// ErrTruncated-wrapped error for any proper prefix of a file, a
// *RecordError naming the location, chunk and offset of a cut or corrupt
// chunk — without panicking or over-allocating on corrupt input.
func Read(r io.Reader) (*Trace, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	cf, err := NewChunkFile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return cf.Trace()
}
