package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// bigSample builds a deterministic multi-location trace large enough to
// span several chunks at the given chunk size.
func bigSample(locs, eventsPerLoc int) *Trace {
	tr := New("lt_stmt")
	main := tr.Region("main", RoleUser)
	send := tr.Region("MPI_Send", RoleMPIP2P)
	recv := tr.Region("MPI_Recv", RoleMPIP2P)
	for l := 0; l < locs; l++ {
		tr.AddLocation(l, 0)
	}
	for l := 0; l < locs; l++ {
		tm := uint64(l + 1)
		for i := 0; i < eventsPerLoc; i++ {
			reg := main
			kind := EvEnter
			switch i % 4 {
			case 1:
				reg, kind = send, EvExit
			case 2:
				reg, kind = recv, EvSend
			case 3:
				kind = EvRecv
			}
			tm += uint64(i%7 + 1)
			tr.Record(l, Event{
				Kind: kind, Time: tm, Region: reg,
				A: int32(i % 5), B: int32(l), C: int64(i) * 3,
			})
		}
	}
	return tr
}

func equalTraces(t *testing.T, got, want *Trace) {
	t.Helper()
	if got.Clock != want.Clock {
		t.Fatalf("clock = %q, want %q", got.Clock, want.Clock)
	}
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("regions = %d, want %d", len(got.Regions), len(want.Regions))
	}
	for i := range want.Regions {
		if got.Regions[i] != want.Regions[i] {
			t.Fatalf("region %d = %+v, want %+v", i, got.Regions[i], want.Regions[i])
		}
	}
	if len(got.Locs) != len(want.Locs) {
		t.Fatalf("locations = %d, want %d", len(got.Locs), len(want.Locs))
	}
	for i := range want.Locs {
		if got.Locs[i].Rank != want.Locs[i].Rank || got.Locs[i].Thread != want.Locs[i].Thread {
			t.Fatalf("location %d identity mismatch", i)
		}
		if len(got.Locs[i].Events) != len(want.Locs[i].Events) {
			t.Fatalf("location %d: %d events, want %d", i, len(got.Locs[i].Events), len(want.Locs[i].Events))
		}
		for j, e := range want.Locs[i].Events {
			if got.Locs[i].Events[j] != e {
				t.Fatalf("event %d/%d = %+v, want %+v", i, j, got.Locs[i].Events[j], e)
			}
		}
	}
}

// chunkedBytes serialises tr in the chunked format with chunks of n
// events.
func chunkedBytes(t *testing.T, tr *Trace, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeChunked(&buf, tr, n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestChunkedRoundTripViaRead(t *testing.T) {
	tr := bigSample(3, 500)
	b := chunkedBytes(t, tr, 64)
	got, err := Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, got, tr)
}

func TestWriteChunkedRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := WriteChunked(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, got, tr)
}

func TestChunkFileStreamMaterialize(t *testing.T) {
	tr := bigSample(4, 300)
	b := chunkedBytes(t, tr, 32)
	cf, err := NewChunkFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := 300/32 + 1; len(cf.locChunks[0]) != want {
		t.Fatalf("loc 0 has %d chunks, want %d", len(cf.locChunks[0]), want)
	}
	got, err := cf.Trace()
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, got, tr)
}

// A ChunkFile holds no decode state between calls, so decoding the same
// file twice yields the same trace.
func TestChunkFileTraceRepeatable(t *testing.T) {
	tr := bigSample(1, 100)
	b := chunkedBytes(t, tr, 16)
	cf, err := NewChunkFile(b)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := cf.Trace()
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		equalTraces(t, got, tr)
	}
}

func TestChunkFileRange(t *testing.T) {
	tr := bigSample(3, 400)
	b := chunkedBytes(t, tr, 32)
	cf, err := NewChunkFile(b)
	if err != nil {
		t.Fatal(err)
	}
	const minT, maxT = 300, 700
	got, err := cf.Range(minT, maxT)
	if err != nil {
		t.Fatal(err)
	}
	for li := range tr.Locs {
		var want []Event
		for _, e := range tr.Locs[li].Events {
			if e.Time >= minT && e.Time <= maxT {
				want = append(want, e)
			}
		}
		if len(got.Locs[li].Events) != len(want) {
			t.Fatalf("loc %d: range yielded %d events, want %d", li, len(got.Locs[li].Events), len(want))
		}
		for j := range want {
			if got.Locs[li].Events[j] != want[j] {
				t.Fatalf("loc %d event %d mismatch", li, j)
			}
		}
	}
}

// WriteChunked must be byte-deterministic: the run cache relies on two
// racing writers producing identical entry bytes.
// WriteChunked writes the same bytes for the same trace on every call,
// also when calls run at once and each takes a pooled compressor that
// another trace used last.
func TestWriteChunkedDeterministic(t *testing.T) {
	tr, other := bigSample(2, 300), bigSample(3, 5000)
	want := chunkedBytes(t, tr, chunkEvents)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var a bytes.Buffer
				if err := WriteChunked(io.Discard, other); err != nil {
					t.Error(err)
					return
				}
				if err := WriteChunked(&a, tr); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(a.Bytes(), want) {
					t.Error("two WriteChunked runs produced different bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestChunkCorruptionMatrix damages a valid file in each way the reader
// must reject and checks the error's class and the record it names.
func TestChunkCorruptionMatrix(t *testing.T) {
	tr := bigSample(2, 200)
	valid := chunkedBytes(t, tr, 32)
	cfAll, err := NewChunkFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	chunks := cfAll.Chunks()
	if len(chunks) < 4 {
		t.Fatalf("test needs several chunks, have %d", len(chunks))
	}

	flip := func(b []byte, at int64) []byte {
		c := append([]byte(nil), b...)
		c[at] ^= 0xff
		return c
	}
	// chunkErr checks that err is a *RecordError of class want naming
	// chunk ci of the valid file: its location, ordinal and offset.
	chunkErr := func(t *testing.T, err error, ci int, want error) {
		t.Helper()
		var re *RecordError
		if !errors.As(err, &re) || !errors.Is(err, want) {
			t.Fatalf("got %v, want a *RecordError wrapping %v", err, want)
		}
		c := chunks[ci]
		if ordinal := slices.Index(cfAll.locChunks[c.Loc], ci) + 1; re.Loc != c.Loc || re.Chunk != ordinal || re.Offset != c.Offset {
			t.Fatalf("error names location %d chunk %d offset %d, want location %d chunk %d offset %d",
				re.Loc, re.Chunk, re.Offset, c.Loc, ordinal, c.Offset)
		}
	}
	// Target the payload of the last chunk of location 0.
	lastLoc0 := cfAll.locChunks[0][len(cfAll.locChunks[0])-1]
	target := chunks[lastLoc0]
	payloadMid := target.Offset + 30 // inside header+payload either way

	t.Run("payload flip via strict Read", func(t *testing.T) {
		_, err := Read(bytes.NewReader(flip(valid, payloadMid)))
		chunkErr(t, err, lastLoc0, ErrBadChunk)
	})

	t.Run("CRC flip fails the read and every window", func(t *testing.T) {
		// Every chunk's CRC is checked when the file is parsed, so no
		// window read, even one the damaged chunk does not overlap, gets
		// past it.
		_, err := NewChunkFile(flip(valid, target.Offset+12))
		chunkErr(t, err, lastLoc0, ErrBadChunk)
	})

	t.Run("cut inside the last chunk", func(t *testing.T) {
		last := len(chunks) - 1
		_, err := Read(bytes.NewReader(valid[:chunks[last].Offset+20]))
		chunkErr(t, err, last, ErrTruncated)
	})

	t.Run("unknown tag is damage, not a torn record", func(t *testing.T) {
		// An unknown tag byte where the third chunk starts is damage; the
		// same file cut inside that chunk's header is a torn record.
		third := chunks[2].Offset
		trailerless := valid[:len(valid)-12]
		bad := append([]byte(nil), trailerless...)
		bad[third] = 0x7f
		_, err := Read(bytes.NewReader(bad))
		want := fmt.Sprintf("unknown record tag 0x7f at offset %d", third)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("got %v, want %q", err, want)
		}
		if errors.Is(err, ErrTruncated) {
			t.Fatalf("an unknown tag was classified as a torn record: %v", err)
		}
		_, err = Read(bytes.NewReader(trailerless[:third+3]))
		chunkErr(t, err, 2, ErrTruncated)
	})

	// The index record and trailer must be exactly the ones the records
	// imply: a tail cut short is a truncation, any other difference is
	// damage.  Each error names the index record's offset.
	idxOff := int64(binary.LittleEndian.Uint64(valid[len(valid)-12:]))
	repointed := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(repointed[len(repointed)-12:], uint64(len(repointed)*2))
	disagrees := "trace: index record or trailer disagrees with the records before it"
	for _, tc := range []struct {
		name  string
		input []byte
		want  string // the error after "offset <idxOff>: "
	}{
		{"missing trailer only", valid[:len(valid)-12], "trace: truncated event stream while reading index record"},
		{"cut inside the index record", valid[:idxOff+5], "trace: truncated event stream while reading index record"},
		{"index body flip", flip(valid, idxOff+5), disagrees},
		{"corrupt trailer offset", repointed, disagrees},
		{"trailing bytes", append(append([]byte(nil), valid...), "trailing junk"...), "trace: 13 bytes after the trailer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatal("malformed tail accepted")
			}
			if want := fmt.Sprintf("offset %d: %s", idxOff, tc.want); err.Error() != want {
				t.Fatalf("got %q, want %q", err, want)
			}
			if errors.Is(err, ErrTruncated) != strings.Contains(tc.want, "truncated") {
				t.Fatalf("errors.Is(%v, ErrTruncated) = %v", err, errors.Is(err, ErrTruncated))
			}
		})
	}
}

func TestChunkedPropertyRoundTrip(t *testing.T) {
	f := func(rawEvents []uint32, rank, thread uint8, chunkSz uint8) bool {
		tr := New("lt_1")
		reg := tr.Region("r", RoleUser)
		l := tr.AddLocation(int(rank), int(thread))
		var tm uint64
		for _, raw := range rawEvents {
			tm += uint64(raw % 1000)
			tr.Record(l, Event{
				Kind: EvKind(raw % 8), Time: tm, Region: reg,
				A: int32(raw) - 500, B: int32(raw % 17), C: int64(raw)*3 - 1000,
			})
		}
		var buf bytes.Buffer
		if writeChunked(&buf, tr, int(chunkSz%32)+1) != nil {
			return false
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if len(got.Locs[0].Events) != len(tr.Locs[0].Events) {
			return false
		}
		for i, e := range tr.Locs[0].Events {
			if got.Locs[0].Events[i] != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteChunkedLayout pins the writer's record order without a byte
// golden (flate output is not promised stable across Go releases): one
// defs record right after the header, each location's full chunks in
// location order, then each location's partial tail in location order,
// and the index and trailer the reader re-derives from those records.
func TestWriteChunkedLayout(t *testing.T) {
	const n = 4
	tr := New("lt_stmt")
	reg := tr.Region("main", RoleUser)
	for l, events := range []int{0, 1, n - 1, n, 2*n + 1} {
		tr.AddLocation(l, 0)
		for i := 0; i < events; i++ {
			tr.Record(l, Event{Kind: EvEnter, Time: uint64(10*l + i), Region: reg, C: int64(i)})
		}
	}
	whole := chunkedBytes(t, tr, n)
	hdrEnd, recs := parseRecords(t, whole)
	if recs[0].tag != tagDefs || recs[0].off != hdrEnd {
		t.Fatalf("first record: tag 0x%02x at %d, want the defs record at %d", recs[0].tag, recs[0].off, hdrEnd)
	}
	var headers []ChunkInfo
	for _, r := range recs[1:] {
		switch r.tag {
		case tagDefs:
			t.Fatalf("a second defs record at offset %d", r.off)
		case tagChunk:
			h, _, err := parseChunkHeader(whole[r.off+1:], r.off)
			if err != nil {
				t.Fatal(err)
			}
			headers = append(headers, h.info)
		}
	}
	// (location, events) in file order: full chunks of locations 3 and
	// 4, then the tails of locations 1, 2 and 4.
	want := [][2]int{{3, n}, {4, n}, {4, n}, {1, 1}, {2, n - 1}, {4, 1}}
	if len(headers) != len(want) {
		t.Fatalf("%d chunk records, want %d", len(headers), len(want))
	}
	for i, h := range headers {
		if h.Loc != want[i][0] || h.Events != want[i][1] {
			t.Errorf("chunk %d: location %d with %d events, want location %d with %d",
				i, h.Loc, h.Events, want[i][0], want[i][1])
		}
	}
	cf, err := NewChunkFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cf.Chunks(), headers) {
		t.Fatalf("reader lists chunks %+v, want the chunk headers %+v", cf.Chunks(), headers)
	}
	got, err := Read(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, got, tr)
}

// TestReadIncrementalDefs reads a file whose second location and
// second region arrive in a second defs record, after the first
// location's first chunk, as an earlier streaming writer laid them out.
// WriteChunked no longer writes such files, but readers must keep
// accepting them; the bytes are also a FuzzChunkReader seed.
func TestReadIncrementalDefs(t *testing.T) {
	corpus, err := os.ReadFile("testdata/fuzz/FuzzChunkReader/two-defs-records")
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSpace(strings.TrimPrefix(string(corpus), "go test fuzz v1\n"))
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	whole := []byte(s)
	_, recs := parseRecords(t, whole)
	var tags []byte
	for _, r := range recs {
		tags = append(tags, r.tag)
	}
	if want := []byte{tagDefs, tagChunk, tagDefs, tagChunk, tagChunk, tagChunk, tagIndex}; !bytes.Equal(tags, want) {
		t.Fatalf("record tags %v, want %v", tags, want)
	}

	want := New("lt_stmt")
	main := want.Region("main", RoleUser)
	send := want.Region("MPI_Send", RoleMPIP2P)
	l0, l1 := want.AddLocation(0, 0), want.AddLocation(1, 0)
	for _, e := range []Event{{Kind: EvEnter, Time: 1, Region: main}, {Kind: EvExit, Time: 4, Region: main},
		{Kind: EvEnter, Time: 6, Region: main}} {
		want.Record(l0, e)
	}
	for _, e := range []Event{{Kind: EvEnter, Time: 2, Region: send}, {Kind: EvSend, Time: 3, B: 7, C: 64},
		{Kind: EvExit, Time: 5, Region: send}} {
		want.Record(l1, e)
	}
	got, err := Read(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	equalTraces(t, got, want)
}
