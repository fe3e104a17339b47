package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzChunkReader feeds arbitrary bytes to both trace readers: each
// must either decode cleanly or return a structured error — never
// panic, hang, or over-allocate on a corrupted varint — and whenever
// the strict Read succeeds, its trace is exactly what the lenient
// reader materializes from the same bytes.
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
		if rerr == nil {
			mat, err := cf.Stream().Materialize()
			if err != nil {
				t.Fatalf("Read succeeded but Materialize failed: %v", err)
			}
			if !reflect.DeepEqual(tr, mat) {
				t.Fatal("Read and NewChunkFile+Materialize disagree")
			}
		}
		// Whatever survived must iterate to completion (clean or with a
		// structured error) without panicking.
		st := cf.Stream()
		for loc := 0; loc < st.NumLocs(); loc++ {
			cur := st.Cursor(loc)
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
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
