package trace

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzChunkReader feeds arbitrary bytes to the trace reader, both as
// they are and re-sealed (reseal), so that an input whose chunk header
// was mutated still reaches the span check and the inflate instead of
// failing the tail comparison.  The reader must either decode cleanly or
// return a structured error — never panic, hang, or over-allocate on a
// corrupted varint.  An accepted input decodes to exactly the events its
// chunk headers claim, location by location.  On an accepted trace whose
// locations' stamps never decrease, Range over a window drawn from the
// input must return exactly the trace's events inside the window: a
// window read may skip a chunk only when none of its events fall in it.
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
	f.Add(valid[:binary.LittleEndian.Uint64(valid[len(valid)-12:])+5]) // a cut inside the index record
	f.Add(append(append([]byte(nil), valid...), "trailing junk"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAccepted(t, data)
		if sealed := reseal(data); sealed != nil {
			checkAccepted(t, sealed)
		}
	})
}

// checkAccepted reads data and, if the reader accepts it, checks the
// decoded trace against the chunk headers and the window invariant.
func checkAccepted(t *testing.T, data []byte) {
	cf, err := NewChunkFile(data)
	if err != nil {
		return
	}
	tr, err := cf.Trace()
	if err != nil {
		return
	}
	for li, l := range cf.Locs() {
		if n := len(tr.Locs[li].Events); n != l.Events {
			t.Fatalf("location %d decoded %d events, its chunk headers claim %d", li, n, l.Events)
		}
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
