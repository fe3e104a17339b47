package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tailRecord describes one record of a complete chunked file, located
// by parsing the raw bytes with the same internal decoders the tail
// uses — so torn-tail tests can cut the file at byte-exact positions.
type tailRecord struct {
	tag        byte
	off        int64 // offset of the tag byte
	end        int64 // offset one past the record
	payloadOff int64 // tagChunk only: first payload byte
	loc        int   // tagChunk only
}

func parseRecords(t *testing.T, full []byte) (hdrEnd int64, recs []tailRecord) {
	t.Helper()
	cf := &ChunkFile{ra: bytes.NewReader(full), size: int64(len(full))}
	p := cf.section(0)
	if err := cf.readHeader(p); err != nil {
		t.Fatal(err)
	}
	hdrEnd = p.off
	nRegions, nLocs := 0, 0
	for {
		off := p.off
		tag, err := p.ReadByte()
		if err == io.EOF {
			return hdrEnd, recs
		}
		if err != nil {
			t.Fatal(err)
		}
		switch tag {
		case tagDefs:
			err := readDefs(p,
				func(string, Role) { nRegions++ },
				func(int, int) { nLocs++ },
				nRegions, nLocs)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, tailRecord{tag: tag, off: off, end: p.off})
		case tagChunk:
			h, err := p.chunkHeader(off)
			if err != nil {
				t.Fatal(err)
			}
			payloadOff := p.off
			if err := p.skip(h.info.CompLen); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, tailRecord{
				tag: tag, off: off, end: p.off, payloadOff: payloadOff, loc: h.info.Loc,
			})
		case tagIndex:
			recs = append(recs, tailRecord{tag: tag, off: off, end: int64(len(full))})
			return hdrEnd, recs
		default:
			t.Fatalf("unknown tag 0x%02x at %d", tag, off)
		}
	}
}

func firstChunkRecord(t *testing.T, recs []tailRecord) tailRecord {
	t.Helper()
	for _, r := range recs {
		if r.tag == tagChunk {
			return r
		}
	}
	t.Fatal("no chunk record found")
	return tailRecord{}
}

// TestFollowLiveWriter drives a ChunkWriter and a TailCursor against
// the same file, asserting the tail discovers each sealed chunk as the
// writer flushes it, and that the final sealed view decodes to the
// exact trace.
func TestFollowLiveWriter(t *testing.T) {
	tr := bigSample(3, 700)
	path := filepath.Join(t.TempDir(), "live.ltrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := NewChunkWriter(f, tr.Clock)
	cw.ChunkEvents = 128
	cw.AutoFlush = true
	for _, r := range tr.Regions {
		cw.Region(r.Name, r.Role)
	}
	for _, l := range tr.Locs {
		cw.AddLocation(l.Rank, l.Thread)
	}

	tc, err := Follow(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	// Nothing flushed yet: the header itself may be incomplete.
	if _, done, err := tc.Poll(); err != nil || done {
		t.Fatalf("initial poll: done=%v err=%v", done, err)
	}

	lastChunks, lastEvents := 0, 0
	for li := range tr.Locs {
		for _, e := range tr.Locs[li].Events {
			cw.Record(li, e)
		}
		if _, done, err := tc.Poll(); err != nil || done {
			t.Fatalf("poll after loc %d: done=%v err=%v", li, done, err)
		}
		if n := tc.NumChunks(); n < lastChunks {
			t.Fatalf("chunk count went backwards: %d -> %d", lastChunks, n)
		} else {
			lastChunks = n
		}
		if n := tc.Events(); n < lastEvents {
			t.Fatalf("event count went backwards: %d -> %d", lastEvents, n)
		} else {
			lastEvents = n
		}
	}
	// 700 events per loc at 128 per chunk: 5 full chunks per loc must
	// already be visible before Close.
	if tc.NumChunks() < 15 {
		t.Fatalf("only %d chunks sealed before Close, want >= 15", tc.NumChunks())
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	n, done, err := tc.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !done || !tc.Done() {
		t.Fatal("tail not done after writer Close")
	}
	if n == 0 {
		t.Fatal("Close flushed the partial chunks but the final poll discovered none")
	}
	if tc.Events() != tr.NumEvents() {
		t.Fatalf("sealed events = %d, want %d", tc.Events(), tr.NumEvents())
	}

	got, err := tc.Snapshot().Trace()
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, got, tr)
}

// TestFollowTornTails cuts a complete file mid-chunk-header and
// mid-payload: the tail must seal exactly the records before the cut,
// report a structured RecordError naming the location, chunk ordinal
// and file offset, and resume seamlessly when the rest arrives.
func TestFollowTornTails(t *testing.T) {
	tr := bigSample(2, 300)
	full := chunkedBytes(t, tr, 64)
	_, recs := parseRecords(t, full)
	chunk := firstChunkRecord(t, recs)

	cases := []struct {
		name string
		cut  int64
		want string // substring of the torn error
	}{
		{"mid-header", chunk.off + 3, "chunk header"},
		{"mid-payload", chunk.payloadOff + (chunk.end-chunk.payloadOff)/2, "chunk payload"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.ltrc")
			if err := os.WriteFile(path, full[:tt.cut], 0o666); err != nil {
				t.Fatal(err)
			}
			tc, err := Follow(path)
			if err != nil {
				t.Fatal(err)
			}
			defer tc.Close()
			if _, done, err := tc.Poll(); err != nil || done {
				t.Fatalf("poll on torn prefix: done=%v err=%v", done, err)
			}
			// The clean sealed prefix: every record before the torn one.
			if tc.NumChunks() != 0 {
				t.Fatalf("sealed %d chunks, want 0 (cut inside the first)", tc.NumChunks())
			}
			if tc.Offset() != chunk.off {
				t.Fatalf("resume offset = %d, want %d (torn record's tag)", tc.Offset(), chunk.off)
			}
			te := tc.Torn()
			if te == nil {
				t.Fatal("no torn record reported")
			}
			if te.Offset != chunk.off {
				t.Fatalf("torn offset = %d, want %d", te.Offset, chunk.off)
			}
			if !strings.Contains(te.Error(), tt.want) {
				t.Fatalf("torn error %q does not mention %q", te, tt.want)
			}
			if tt.name == "mid-payload" {
				if te.Loc != chunk.loc {
					t.Fatalf("torn loc = %d, want %d", te.Loc, chunk.loc)
				}
				if te.Chunk != 1 {
					t.Fatalf("torn chunk ordinal = %d, want 1", te.Chunk)
				}
			}
			if tc.Err() != nil {
				t.Fatalf("torn tail became sticky damage: %v", tc.Err())
			}

			// Writer completes the file: the tail resumes from the same
			// offset and seals everything.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(full[tt.cut:]); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if _, done, err := tc.Poll(); err != nil || !done {
				t.Fatalf("poll after completion: done=%v err=%v", done, err)
			}
			if tc.Torn() != nil {
				t.Fatalf("torn still reported after completion: %v", tc.Torn())
			}
			got, err := tc.Snapshot().Trace()
			if err != nil {
				t.Fatal(err)
			}
			equalTraces(t, got, tr)
		})
	}
}

// TestFollowDamageIsSticky corrupts a record tag: waiting cannot fix
// structurally impossible bytes, so the tail must report damage, not a
// torn tail.
func TestFollowDamageIsSticky(t *testing.T) {
	tr := bigSample(1, 200)
	full := chunkedBytes(t, tr, 64)
	_, recs := parseRecords(t, full)
	chunk := firstChunkRecord(t, recs)
	bad := append([]byte(nil), full...)
	bad[chunk.off] = 0x7f // unknown tag
	path := filepath.Join(t.TempDir(), "bad.ltrc")
	if err := os.WriteFile(path, bad, 0o666); err != nil {
		t.Fatal(err)
	}
	tc, err := Follow(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	if _, _, err := tc.Poll(); err == nil {
		t.Fatal("unknown tag not reported")
	}
	if tc.Err() == nil || !strings.Contains(tc.Err().Error(), "unknown record tag") {
		t.Fatalf("damage = %v, want unknown record tag", tc.Err())
	}
	// Sticky: further polls return the same error without re-scanning.
	if _, _, err := tc.Poll(); err == nil {
		t.Fatal("damage did not stick")
	}
}

// TestTailSnapshotImmutable takes a snapshot of a partial tail and
// asserts later growth is invisible to it.
func TestTailSnapshotImmutable(t *testing.T) {
	tr := bigSample(2, 300)
	full := chunkedBytes(t, tr, 64)
	_, recs := parseRecords(t, full)
	var chunkEnds []int64
	for _, r := range recs {
		if r.tag == tagChunk {
			chunkEnds = append(chunkEnds, r.end)
		}
	}
	if len(chunkEnds) < 4 {
		t.Fatalf("need >= 4 chunks, have %d", len(chunkEnds))
	}
	path := filepath.Join(t.TempDir(), "snap.ltrc")
	if err := os.WriteFile(path, full[:chunkEnds[1]], 0o666); err != nil {
		t.Fatal(err)
	}
	tc, err := Follow(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	if _, _, err := tc.Poll(); err != nil {
		t.Fatal(err)
	}
	snap := tc.Snapshot()
	wantChunks := len(snap.Chunks())
	wantEvents := tc.Events()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[chunkEnds[1]:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, done, err := tc.Poll(); err != nil || !done {
		t.Fatalf("poll: done=%v err=%v", done, err)
	}
	if tc.NumChunks() <= wantChunks {
		t.Fatal("tail did not grow past the snapshot")
	}
	if got := len(snap.Chunks()); got != wantChunks {
		t.Fatalf("snapshot chunk count moved: %d -> %d", wantChunks, got)
	}
	got, err := snap.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != wantEvents {
		t.Fatalf("snapshot event count moved: %d -> %d", wantEvents, got.NumEvents())
	}
}

// TestChunkWriterFlush asserts Flush pushes sealed records through the
// buffer without sealing the partial per-location chunks.
func TestChunkWriterFlush(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChunkWriter(&buf, "lt_stmt")
	cw.ChunkEvents = 4
	cw.Region("main", RoleUser)
	cw.AddLocation(0, 0)
	for i := 0; i < 6; i++ { // one sealed chunk of 4, two buffered
		cw.Record(0, Event{Kind: EvEnter, Time: uint64(i + 1)})
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := buf.Len()
	if flushed == 0 {
		t.Fatal("Flush wrote nothing")
	}
	cf := &ChunkFile{ra: bytes.NewReader(buf.Bytes()), size: int64(buf.Len())}
	p := cf.section(0)
	if err := cf.readHeader(p); err != nil {
		t.Fatalf("flushed bytes lack a readable header: %v", err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= flushed {
		t.Fatal("Close added nothing (partial chunk and index missing)")
	}
}
