package trace

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// FuzzChunkReader feeds arbitrary bytes to both trace readers: each
// must either decode cleanly or return a structured error — never
// panic, hang, or over-allocate on a corrupted varint — and whenever
// the strict Read succeeds, its trace is exactly what the lenient
// reader decodes from the same bytes.  On such a trace whose locations'
// stamps never decrease, Range over a window drawn from the input must
// return exactly the trace's events inside the window: index pruning
// may skip a chunk only when none of its events fall in it.
func FuzzChunkReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte(magic + "\x02"))
	tr := bigSampleFuzz()
	var buf bytes.Buffer
	if err := WriteChunked(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-12])
	for _, at := range []int{6, 20, len(valid) / 2, len(valid) - 20} {
		c := append([]byte(nil), valid...)
		c[at] ^= 0xff
		f.Add(c)
	}

	f.Add([]byte(magic + "\x01\x00\x00\x00")) // a version-1 header
	f.Add(valid[:len(valid)/3])

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, rerr := Read(bytes.NewReader(data))
		if rerr == nil && tr == nil {
			t.Fatal("Read returned nil trace and nil error")
		}
		cf, err := NewChunkFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if rerr == nil {
				t.Fatalf("Read accepted bytes NewChunkFile rejects: %v", err)
			}
			return
		}
		// Whatever survived must decode cleanly or fail with a
		// structured error, without panicking.
		all, err := cf.Trace()
		if rerr != nil {
			return
		}
		if err != nil {
			t.Fatalf("Read succeeded but ChunkFile.Trace failed: %v", err)
		}
		if !reflect.DeepEqual(tr, all) {
			t.Fatal("Read and NewChunkFile+Trace disagree")
		}
		var stamps []uint64
		for _, l := range tr.Locs {
			for i, e := range l.Events {
				if i > 0 && e.Time < l.Events[i-1].Time {
					return
				}
				stamps = append(stamps, e.Time)
			}
		}
		if len(stamps) == 0 {
			return
		}
		lo, hi := stamps[int(data[0])%len(stamps)], stamps[int(data[len(data)-1])%len(stamps)]
		if lo > hi {
			lo, hi = hi, lo
		}
		got, err := cf.Range(lo, hi)
		if err != nil {
			t.Fatalf("Range(%d, %d) of an accepted trace failed: %v", lo, hi, err)
		}
		for li, l := range tr.Locs {
			var want []Event
			for _, e := range l.Events {
				if e.Time >= lo && e.Time <= hi {
					want = append(want, e)
				}
			}
			if !slices.Equal(got.Locs[li].Events, want) {
				t.Fatalf("Range(%d, %d): location %d has %d events, want %d",
					lo, hi, li, len(got.Locs[li].Events), len(want))
			}
		}
	})
}

func bigSampleFuzz() *Trace {
	tr := New("lt_stmt")
	reg := tr.Region("r", RoleUser)
	l0 := tr.AddLocation(0, 0)
	l1 := tr.AddLocation(1, 0)
	for i := 0; i < 80; i++ {
		tr.Record(l0, Event{Kind: EvKind(i % 8), Time: uint64(i * 2), Region: reg, A: int32(i), C: int64(i)})
		tr.Record(l1, Event{Kind: EvKind(i % 3), Time: uint64(i*2 + 1), Region: reg, B: int32(i)})
	}
	return tr
}
