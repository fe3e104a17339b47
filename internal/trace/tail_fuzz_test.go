package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzTailCursor appends arbitrary bytes to a followed file in
// fuzzed-size pieces, polling after each one.  A piece is 1 to 256 units
// of len(data)/64+1 bytes, so an input takes at most about 64 polls and
// byte-exact cuts stay reachable on short inputs.  The tail must never
// panic; damage, once reported, must stay reported; and whenever the
// strict Read accepts the same bytes, the tail must end Done with no
// error and its snapshot must decode to exactly Read's trace.
func FuzzTailCursor(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteChunked(&buf, bigSampleFuzz()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, []byte{0})
	f.Add(valid, []byte{7, 255, 1})
	f.Add(valid[:len(valid)/2], []byte{31})

	path := filepath.Join(f.TempDir(), "t.ltrc")
	f.Fuzz(func(t *testing.T, data, steps []byte) {
		w, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		tc, err := Follow(path)
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		var damage error
		unit := len(data)/64 + 1
		for off, i := 0, 0; off < len(data); i++ {
			n := unit
			if len(steps) > 0 {
				n *= 1 + int(steps[i%len(steps)])
			}
			n = min(n, len(data)-off)
			if _, err := w.Write(data[off : off+n]); err != nil {
				t.Fatal(err)
			}
			off += n
			_, _, err := tc.Poll()
			if damage != nil && err != damage {
				t.Fatalf("damage %v was not sticky: Poll returned %v", damage, err)
			}
			damage = err
			if got := tc.Err(); got != damage {
				t.Fatalf("Err() = %v after Poll returned %v", got, damage)
			}
		}
		if _, _, err := tc.Poll(); damage != nil && err != damage {
			t.Fatalf("damage %v was not sticky: Poll returned %v", damage, err)
		}
		want, rerr := Read(bytes.NewReader(data))
		if rerr != nil {
			return
		}
		if !tc.Done() || tc.Err() != nil {
			t.Fatalf("Read accepts the bytes, but the tail ends Done()=%v Err()=%v", tc.Done(), tc.Err())
		}
		got, err := tc.Snapshot().Trace()
		if err != nil {
			t.Fatalf("Read accepts the bytes, but the tail's snapshot fails: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("the tail's snapshot and Read disagree")
		}
	})
}
