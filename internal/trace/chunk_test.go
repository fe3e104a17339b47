package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
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

// chunkedBytes serialises tr in the chunked format with the given chunk
// size (0 = default).
func chunkedBytes(t *testing.T, tr *Trace, chunkEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := NewChunkWriter(&buf, tr.Clock)
	if chunkEvents > 0 {
		cw.ChunkEvents = chunkEvents
	}
	for _, r := range tr.Regions {
		cw.Region(r.Name, r.Role)
	}
	for _, l := range tr.Locs {
		cw.AddLocation(l.Rank, l.Thread)
	}
	for li := range tr.Locs {
		for _, e := range tr.Locs[li].Events {
			cw.Record(li, e)
		}
	}
	if err := cw.Close(); err != nil {
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
	cf, err := NewChunkFile(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	if !cf.IndexOK {
		t.Fatal("intact file did not load its index")
	}
	if cf.Damage != nil {
		t.Fatalf("unexpected damage: %v", cf.Damage)
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
	cf, err := NewChunkFile(bytes.NewReader(b), int64(len(b)))
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
	cf, err := NewChunkFile(bytes.NewReader(b), int64(len(b)))
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
func TestWriteChunkedDeterministic(t *testing.T) {
	tr := bigSample(2, 300)
	var a, b bytes.Buffer
	if err := WriteChunked(&a, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteChunked(&b, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteChunked runs produced different bytes")
	}
}

func TestChunkCorruptionMatrix(t *testing.T) {
	tr := bigSample(2, 200)
	valid := chunkedBytes(t, tr, 32)
	cfAll, err := NewChunkFile(bytes.NewReader(valid), int64(len(valid)))
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
	// Target the payload of the last chunk of location 0.
	lastLoc0 := cfAll.locChunks[0][len(cfAll.locChunks[0])-1]
	target := chunks[lastLoc0]
	payloadMid := target.Offset + 30 // inside header+payload either way

	t.Run("payload flip via strict Read", func(t *testing.T) {
		_, err := Read(bytes.NewReader(flip(valid, payloadMid)))
		if err == nil {
			t.Fatal("corrupt chunk read cleanly")
		}
		var re *RecordError
		if !errors.As(err, &re) {
			t.Fatalf("error is not a *RecordError: %v", err)
		}
		if re.Chunk == 0 {
			t.Fatalf("RecordError lost its chunk context: %+v", re)
		}
	})

	t.Run("payload flip keeps other chunks readable", func(t *testing.T) {
		cf, err := NewChunkFile(bytes.NewReader(flip(valid, target.Offset+12)), int64(len(valid)))
		if err != nil {
			t.Fatal(err)
		}
		// Decoding every chunk fails on the damaged one, naming it.
		_, err = cf.Trace()
		var re *RecordError
		if !errors.As(err, &re) {
			t.Fatalf("decode error is not a *RecordError: %v", err)
		}
		if re.Loc != 0 || re.Offset != target.Offset {
			t.Fatalf("error names location %d offset %d, want location 0 offset %d", re.Loc, re.Offset, target.Offset)
		}
		if !errors.Is(err, ErrBadChunk) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("decode error lost its cause: %v", err)
		}
		// A window the damaged chunk does not overlap is pruned before
		// it, so every chunk it does overlap still decodes.
		maxT := target.FirstTime - 1
		got, err := cf.Range(0, maxT)
		if err != nil {
			t.Fatalf("window before the damaged chunk: %v", err)
		}
		for li := range tr.Locs {
			var want []Event
			for _, e := range tr.Locs[li].Events {
				if e.Time <= maxT {
					want = append(want, e)
				}
			}
			if !slices.Equal(got.Locs[li].Events, want) {
				t.Fatalf("location %d: window yielded %d events, want %d", li, len(got.Locs[li].Events), len(want))
			}
		}
	})

	t.Run("truncated tail falls back to scan", func(t *testing.T) {
		// Cut inside the last chunk's payload: index and trailer gone.
		cut := chunks[len(chunks)-1].Offset + 20
		cf, err := NewChunkFile(bytes.NewReader(valid[:cut]), cut)
		if err != nil {
			t.Fatal(err)
		}
		if cf.IndexOK {
			t.Fatal("truncated file claims an intact index")
		}
		if cf.Damage == nil {
			t.Fatal("truncated file reports no damage")
		}
		if len(cf.Chunks()) != len(chunks)-1 {
			t.Fatalf("scan kept %d chunks, want %d", len(cf.Chunks()), len(chunks)-1)
		}
		// Every surviving chunk decodes.
		if _, err := cf.Trace(); err != nil {
			t.Fatalf("surviving chunk failed: %v", err)
		}
	})

	t.Run("unknown tag is damage, not a torn record", func(t *testing.T) {
		// Without a trailer the fallback scan reads the records.  An
		// unknown tag byte where the third chunk starts is damage; the
		// same file cut inside that chunk's header is a torn record.
		third := chunks[2].Offset
		trailerless := valid[:len(valid)-12]
		bad := append([]byte(nil), trailerless...)
		bad[third] = 0x7f
		cf, err := NewChunkFile(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatal(err)
		}
		if cf.IndexOK {
			t.Fatal("trailerless file claims an intact index")
		}
		want := fmt.Sprintf("unknown record tag 0x7f at offset %d", third)
		if cf.Damage == nil || !strings.Contains(cf.Damage.Error(), want) {
			t.Fatalf("damage = %v, want %q", cf.Damage, want)
		}
		if errors.Is(cf.Damage, ErrTruncated) {
			t.Fatalf("an unknown tag was classified as a torn record: %v", cf.Damage)
		}
		if len(cf.Chunks()) != 2 {
			t.Fatalf("scan kept %d chunks, want the 2 before the damage", len(cf.Chunks()))
		}
		if _, err := cf.Trace(); err != nil {
			t.Fatalf("chunks before the damage failed: %v", err)
		}

		cut, err := NewChunkFile(bytes.NewReader(trailerless[:third+3]), third+3)
		if err != nil {
			t.Fatal(err)
		}
		var re *RecordError
		if !errors.As(cut.Damage, &re) || !errors.Is(cut.Damage, ErrTruncated) || re.Offset != third {
			t.Fatalf("cut inside a chunk header: damage = %v, want a torn RecordError at offset %d", cut.Damage, third)
		}
	})

	t.Run("missing trailer only", func(t *testing.T) {
		cf, err := NewChunkFile(bytes.NewReader(valid[:len(valid)-12]), int64(len(valid)-12))
		if err != nil {
			t.Fatal(err)
		}
		if cf.IndexOK {
			t.Fatal("trailerless file claims an intact index")
		}
		if cf.Damage != nil {
			t.Fatalf("scan of complete records reported damage: %v", cf.Damage)
		}
		got, err := cf.Trace()
		if err != nil {
			t.Fatal(err)
		}
		equalTraces(t, got, tr)
	})

	t.Run("corrupt trailer offset falls back to scan", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(bad[len(bad)-12:], uint64(len(bad)*2))
		cf, err := NewChunkFile(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatal(err)
		}
		if cf.IndexOK {
			t.Fatal("bad trailer offset accepted")
		}
		got, err := cf.Trace()
		if err != nil {
			t.Fatal(err)
		}
		equalTraces(t, got, tr)
	})

	t.Run("index CRC flip falls back to scan", func(t *testing.T) {
		idxOff := binary.LittleEndian.Uint64(valid[len(valid)-12:])
		bad := flip(valid, int64(idxOff)+5)
		cf, err := NewChunkFile(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatal(err)
		}
		if cf.IndexOK {
			t.Fatal("corrupt index accepted")
		}
		got, err := cf.Trace()
		if err != nil {
			t.Fatal(err)
		}
		equalTraces(t, got, tr)
	})
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
		cw := NewChunkWriter(&buf, tr.Clock)
		cw.ChunkEvents = int(chunkSz%32) + 1
		cw.Region("r", RoleUser)
		cw.AddLocation(int(rank), int(thread))
		for _, e := range tr.Locs[0].Events {
			cw.Record(0, e)
		}
		if cw.Close() != nil {
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
