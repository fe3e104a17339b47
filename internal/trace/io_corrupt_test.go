package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// rawRecord describes one record of a complete chunked file, located
// by parsing the raw bytes with the reader's own internal decoders — so
// corruption tests can cut or damage the file at byte-exact positions.
type rawRecord struct {
	tag        byte
	off        int64 // offset of the tag byte
	end        int64 // offset one past the record
	payloadOff int64 // tagChunk only: first payload byte
	loc        int   // tagChunk only
}

func parseRecords(t *testing.T, full []byte) (hdrEnd int64, recs []rawRecord) {
	t.Helper()
	cf := &ChunkFile{}
	c := &cursor{b: full}
	if err := cf.header(c); err != nil {
		t.Fatal(err)
	}
	hdrEnd = int64(c.off)
	for c.off < len(full) {
		off := int64(c.off)
		tag := full[c.off]
		c.off++
		switch tag {
		case tagDefs:
			if err := cf.defs(c); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rawRecord{tag: tag, off: off, end: int64(c.off)})
		case tagChunk:
			h, n, err := parseChunkHeader(full[c.off:], off)
			if err != nil {
				t.Fatal(err)
			}
			payloadOff := int64(c.off + n)
			c.off += n + h.info.CompLen
			recs = append(recs, rawRecord{
				tag: tag, off: off, end: int64(c.off), payloadOff: payloadOff, loc: h.info.Loc,
			})
		case tagIndex:
			return hdrEnd, append(recs, rawRecord{tag: tag, off: off, end: int64(len(full))})
		default:
			t.Fatalf("unknown tag 0x%02x at %d", tag, off)
		}
	}
	return hdrEnd, recs
}

// reseal returns b up to its first index tag, followed by the index
// record and trailer that WriteChunked derives from the records before
// it, or nil when b does not parse that far.  An input with a damaged
// chunk header thus reaches the decoder's checks instead of failing the
// reader's tail comparison.
func reseal(b []byte) []byte {
	cf := &ChunkFile{}
	idx, err := cf.records(b)
	if err != nil {
		return nil
	}
	return appendIndex(slices.Clip(b[:idx]), cf.Regions, cf.locs, cf.chunks, int64(idx))
}

func firstChunkRecord(t *testing.T, recs []rawRecord) rawRecord {
	t.Helper()
	for _, r := range recs {
		if r.tag == tagChunk {
			return r
		}
	}
	t.Fatal("no chunk record found")
	return rawRecord{}
}

// recordSample is a small chunked image with several chunks per
// location (chunks of 2 events) and rank == location index, so cuts can
// land inside any record.
func recordSample(t *testing.T) []byte {
	t.Helper()
	return chunkedBytes(t, sample(), 2)
}

// indexOffset returns the offset of a complete image's index record.
func indexOffset(t *testing.T, whole []byte) int64 {
	t.Helper()
	_, recs := parseRecords(t, whole)
	last := recs[len(recs)-1]
	if last.tag != tagIndex {
		t.Fatalf("last record has tag 0x%02x, want the index", last.tag)
	}
	return last.off
}

// Every proper prefix of a valid trace must fail with ErrTruncated —
// never a panic, never a silently short trace — including a cut inside
// the index record or the trailer, which prove the file complete.
func TestReadTruncationAtEveryOffset(t *testing.T) {
	whole := recordSample(t)
	for n := 0; n < len(whole); n++ {
		got, err := Read(bytes.NewReader(whole[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed as a complete trace of %d events",
				n, len(whole), got.NumEvents())
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrTruncated", n, err)
		}
	}
}

func TestReadCorruptionDiagnostics(t *testing.T) {
	valid := recordSample(t)
	flippedMagic := append([]byte{valid[0] ^ 0xff}, valid[1:]...)

	// header builds a minimal image by hand: magic, version, an empty
	// clock name, then whatever raw bytes the case wants to probe.
	uvarint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	header := func(tail ...[]byte) []byte {
		b := append([]byte(magic), uvarint(traceVersion)...)
		b = append(b, uvarint(0)...)
		for _, part := range tail {
			b = append(b, part...)
		}
		return b
	}
	// junk inserts five bytes that start no record before the index
	// record and re-points the trailer past them: the reader meets the
	// junk where it expects a record tag.
	idx := indexOffset(t, valid)
	junk := append(append(append([]byte(nil), valid[:idx]...), 7, 7, 7, 7, 7), valid[idx:]...)
	binary.LittleEndian.PutUint64(junk[len(junk)-12:], uint64(idx+5))
	// respanned makes location 0's first chunk (stamps 1 and 5) claim
	// FirstTime 127 and re-seals the file, so its index agrees with the
	// header.  The span sits outside the payload CRC, so only the decode
	// can catch it.
	_, recs := parseRecords(t, valid)
	first := firstChunkRecord(t, recs)
	at := first.off + 1 + int64(len(uvarint(0))+len(uvarint(2)))
	if first.loc != 0 || valid[at] != 1 {
		t.Fatalf("first chunk: location %d, FirstTime byte %d; want location 0 and 1", first.loc, valid[at])
	}
	respanned := append([]byte(nil), valid...)
	respanned[at] = 127
	respanned = reseal(respanned)
	for _, tc := range []struct {
		name  string
		input []byte
		want  string // substring of the expected error
	}{
		{"flipped magic byte", flippedMagic, "bad magic"},
		{"future version", append([]byte(magic), uvarint(traceVersion+1)...), "unsupported version 3"},
		{"version 1", append([]byte(magic), uvarint(1)...), "unsupported version 1"},
		{"implausible clock-name length", append(append([]byte(magic), uvarint(traceVersion)...), uvarint(1<<40)...),
			"implausible clock name length"},
		{"implausible region count", header([]byte{tagDefs}, uvarint(1<<40)), "implausible region count"},
		{"implausible location count", header([]byte{tagDefs}, uvarint(0), uvarint(1<<40)), "implausible location count"},
		{"empty input", nil, "truncated event stream while reading magic"},
		{"junk between records", junk, fmt.Sprintf("unknown record tag 0x07 at offset %d", idx)},
		{"chunk span misstated", respanned,
			fmt.Sprintf("location 0 (rank 0 thread 0) chunk 1 offset %d: trace: chunk payload corrupt: events span [1, 5], header claims [127, 5]", first.off)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	t.Run("huge event count with no events", func(t *testing.T) {
		// One location whose only chunk claims 2^26 events — the most
		// its declared 2^26-byte raw payload could hold — but carries no
		// payload (CRC 0 is the empty payload's), sealed by the index
		// and trailer those records imply, so the file parses complete.
		// Decoding must fail fast instead of allocating for the claimed
		// count or length.
		input := reseal(header([]byte{tagDefs}, uvarint(0), uvarint(1), uvarint(0), uvarint(0),
			[]byte{tagChunk}, uvarint(0), uvarint(1<<26), uvarint(0), uvarint(0), uvarint(1<<26), uvarint(0),
			[]byte{0, 0, 0, 0}, []byte{tagIndex}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(input))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadChunk) || !strings.Contains(err.Error(), "inflating payload") {
			t.Fatalf("got %v, want an ErrBadChunk inflating the payload", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("decoding a %d-byte image allocated %d bytes", len(input), alloc)
		}
	})
}

// A trace file ends at its trailer: bytes after it are damage, not a
// cut, and the read fails naming how many there are.
func TestReadSelfDelimiting(t *testing.T) {
	whole := recordSample(t)
	_, err := Read(bytes.NewReader(append(whole, "trailing junk"...)))
	if err == nil || errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "13 bytes after the trailer") {
		t.Fatalf("trailing bytes: got %v, want an error naming 13 bytes after the trailer", err)
	}
}

// A cut inside a chunk record must surface the offending record's
// coordinates — location, rank, thread, chunk ordinal and file offset —
// through a *RecordError, while errors.Is(err, ErrTruncated) keeps
// working through the wrap.
func TestReadRecordContext(t *testing.T) {
	whole := recordSample(t)
	_, recs := parseRecords(t, whole)
	ordinal := map[int]int{} // per-location chunk count so far
	chunks := 0
	for _, r := range recs {
		if r.tag != tagChunk {
			continue
		}
		ordinal[r.loc]++
		chunks++
		for _, cut := range []int64{r.off + 2, r.payloadOff + 1, r.end - 1} {
			_, err := Read(bytes.NewReader(whole[:cut]))
			var re *RecordError
			if !errors.As(err, &re) {
				t.Fatalf("cut at %d inside chunk at %d: got %v, want a RecordError", cut, r.off, err)
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut at %d: RecordError does not unwrap to ErrTruncated: %v", cut, err)
			}
			if re.Loc != r.loc || re.Rank != r.loc || re.Thread != 0 {
				t.Fatalf("cut at %d: location %d rank %d thread %d, want %d/%d/0",
					cut, re.Loc, re.Rank, re.Thread, r.loc, r.loc)
			}
			if re.Chunk != ordinal[r.loc] || re.Offset != r.off {
				t.Fatalf("cut at %d: chunk %d offset %d, want chunk %d offset %d",
					cut, re.Chunk, re.Offset, ordinal[r.loc], r.off)
			}
			msg := err.Error()
			for _, want := range []string{"rank", fmt.Sprintf("chunk %d", re.Chunk), fmt.Sprintf("offset %d", r.off)} {
				if !strings.Contains(msg, want) {
					t.Fatalf("cut at %d: message lacks %q: %v", cut, want, err)
				}
			}
		}
	}
	if chunks < 4 {
		t.Fatalf("sample has %d chunks, want several per location", chunks)
	}

	// Where the location is unknown, or not in the table, the message
	// names no rank or thread.
	first := firstChunkRecord(t, recs)
	outside := append([]byte(nil), whole...)
	outside[first.off+1] = 0x7f // the location field: 127, past the table
	for _, tc := range []struct {
		name  string
		input []byte
		want  string
	}{
		{"defs record cut", whole[:recs[0].off+2],
			fmt.Sprintf("offset %d: trace: truncated event stream while reading defs record", recs[0].off)},
		{"chunk header cut before its location", whole[:first.off+1],
			fmt.Sprintf("offset %d: trace: truncated event stream while reading chunk header", first.off)},
		{"chunk header naming a location past the table", outside[:first.off+3],
			fmt.Sprintf("location 127 offset %d: trace: truncated event stream while reading chunk header", first.off)},
	} {
		_, err := Read(bytes.NewReader(tc.input))
		var re *RecordError
		if !errors.As(err, &re) || !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: got %v, want a truncated RecordError", tc.name, err)
		}
		if err.Error() != tc.want {
			t.Errorf("%s: message %q, want %q", tc.name, err, tc.want)
		}
	}
}

// ReadFile must stamp the file path onto every failure: RecordErrors
// carry it in the Path field (and render it), and non-record failures
// are wrapped with it.
func TestReadFileStampsPath(t *testing.T) {
	dir := t.TempDir()
	whole := recordSample(t)

	good := filepath.Join(dir, "good.ltrc")
	if err := os.WriteFile(good, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(good); err != nil {
		t.Fatalf("ReadFile on a valid trace: %v", err)
	}

	// Cut inside the last chunk's payload: the RecordError must name
	// the file.
	_, recs := parseRecords(t, whole)
	var last rawRecord
	for _, r := range recs {
		if r.tag == tagChunk {
			last = r
		}
	}
	cut := filepath.Join(dir, "cut.ltrc")
	if err := os.WriteFile(cut, whole[:last.payloadOff+1], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(cut)
	var rerr *RecordError
	if !errors.As(err, &rerr) {
		t.Fatalf("truncated chunk: got %v, want a RecordError", err)
	}
	if rerr.Path != cut {
		t.Fatalf("RecordError.Path = %q, want %q", rerr.Path, cut)
	}
	if !strings.Contains(err.Error(), cut) || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("message lacks path or record context: %v", err)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("path stamping broke the ErrTruncated chain: %v", err)
	}

	// A file cut at a record boundary has no record context but must
	// still fail, wrapped with the path.
	boundary := filepath.Join(dir, "boundary.ltrc")
	if err := os.WriteFile(boundary, whole[:last.end], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(boundary); !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), boundary) {
		t.Fatalf("record-boundary cut: got %v, want ErrTruncated naming the file", err)
	}

	// A header-level failure (bad magic) must be wrapped with the path.
	bad := filepath.Join(dir, "bad.ltrc")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("bad-magic error lacks the path: %v", err)
	}
}
