package trace

import (
	"os"
	"sync"
)

// TailCursor follows a trace file that is still being written by a
// ChunkWriter, discovering each sealed record as it lands on disk.  It
// is the storage half of live observation: the writer appends
// self-contained records and never rewrites earlier bytes, so a reader
// that remembers the offset of the first byte it has not yet parsed can
// poll the growing file, parse any newly completed records, and stop
// cleanly at a torn tail — a record whose trailing bytes have not
// reached the disk yet.
//
// Poll stats the file and runs the same record scanner NewChunkFile
// falls back to on an index-less file (see ChunkFile.scanSealed) from
// the last-good offset.  A torn tail is reported by Torn() and
// re-parsed from the same offset on the next Poll; the index record
// makes Done() true; structurally impossible bytes become sticky damage
// reported by Err().
//
// Snapshot returns a point-in-time *ChunkFile over the sealed prefix,
// which decodes exactly like a finished file.  All methods are safe for
// concurrent use.
type TailCursor struct {
	mu sync.Mutex
	f  *os.File

	cf         *ChunkFile // accumulated sealed view; cf.size tracks the last stat
	headerDone bool
	recordScan
}

// Follow opens path for tailing.  The file may be empty or mid-header:
// Follow succeeds as long as the file can be opened, and Poll reports
// progress as bytes arrive.
func Follow(path string) (*TailCursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &TailCursor{f: f, cf: &ChunkFile{ra: f, path: path}}, nil
}

// Close releases the underlying file.
func (tc *TailCursor) Close() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.f.Close()
}

// Poll advances the tail over any records sealed since the last call.
// It returns the number of newly discovered chunks, whether the file is
// complete (its index record has been written), and the sticky damage
// error, if any.  A torn tail is not an error — it is reported by Torn
// and retried on the next Poll.
func (tc *TailCursor) Poll() (newChunks int, done bool, err error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.damage != nil || tc.done {
		return 0, tc.done, tc.damage
	}
	fi, err := tc.f.Stat()
	if err != nil {
		tc.damage = err
		return 0, false, err
	}
	tc.cf.size = fi.Size()
	if !tc.headerDone {
		p := tc.cf.section(0)
		if err := tc.cf.readHeader(p); err != nil {
			if truncation(err) {
				return 0, false, nil // header still being written
			}
			tc.damage = err
			return 0, false, tc.damage
		}
		tc.headerDone = true
		tc.resume = p.off
	}
	n := tc.cf.scanSealed(&tc.recordScan)
	return n, tc.done, tc.damage
}

// Done reports whether the writer has finished the file (its index
// record was seen); the sealed view is then the complete trace.
func (tc *TailCursor) Done() bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.done
}

// Err returns the sticky structural error, if any.  Torn tails are not
// damage; see Torn.
func (tc *TailCursor) Err() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.damage
}

// Torn describes the record currently cut off at the end of the file,
// or nil when the last Poll stopped at a clean record boundary.  The
// error names the location, the one-based chunk ordinal within it and
// the file offset of the torn record.  It is transient: once the writer
// completes the record, the next Poll seals it and Torn reports nil.
func (tc *TailCursor) Torn() *RecordError {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.torn
}

// Offset returns the file offset of the first byte not covered by a
// sealed record — where the next Poll resumes parsing.
func (tc *TailCursor) Offset() int64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.resume
}

// Clock returns the trace's clock name ("" until the header has been
// read).
func (tc *TailCursor) Clock() string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.cf.Clock
}

// NumChunks returns the number of sealed chunks discovered so far.
func (tc *TailCursor) NumChunks() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.cf.chunks)
}

// Events returns the total sealed event count across locations.  Events
// still buffered in the writer's active chunks are not visible until
// their chunk is sealed.
func (tc *TailCursor) Events() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	n := 0
	for _, l := range tc.cf.locs {
		n += l.Events
	}
	return n
}

// Snapshot returns a point-in-time random-access view over the sealed
// prefix.  The snapshot shares the tail's file handle but owns its
// slice headers, so later Polls growing the tail never disturb it —
// sealed records are immutable, and appends beyond a snapshot's lengths
// are invisible to it.  Closing a snapshot is a no-op (the tail owns
// the file); close the TailCursor instead.
func (tc *TailCursor) Snapshot() *ChunkFile {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	cf := &ChunkFile{
		ra:      tc.cf.ra,
		size:    tc.cf.size,
		path:    tc.cf.path,
		Clock:   tc.cf.Clock,
		Regions: tc.cf.Regions,
		locs:    append([]LocInfo(nil), tc.cf.locs...),
		chunks:  tc.cf.chunks,
		IndexOK: tc.done,
	}
	cf.locChunks = make([][]int, len(tc.cf.locChunks))
	copy(cf.locChunks, tc.cf.locChunks)
	return cf
}
