package runcache

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cube"
	"repro/internal/trace"
)

func sampleKey() Key {
	return Key{
		Spec:    "tiny|4x2x1|oneper=false|test spec",
		Mode:    "lt_stmt",
		Seed:    7,
		Noise:   "{OSDetourProb:0.002}",
		Faults:  "",
		Config:  "{Mode:lt_stmt ...}",
		Analyze: true,
		Version: "sim1",
	}
}

func sampleEntry() *Entry {
	tr := trace.New("lt_stmt")
	reg := tr.Region("solve", trace.RoleUser)
	li := tr.AddLocation(0, 0)
	tr.Record(li, trace.Event{Kind: trace.EvEnter, Time: 10, Region: reg})
	tr.Record(li, trace.Event{Kind: trace.EvExit, Time: 30, Region: reg, A: -2, B: 5, C: 99})
	p := cube.New("lt_stmt", []string{"r0t0", "r0t1"})
	m := p.AddMetric("time", "total time", cube.NoParent)
	path := p.Path(cube.NoParent, "main")
	p.Add(m, path, 0, 1.5)
	p.Add(m, path, 1, 2.5)
	return &Entry{
		Mode:    "lt_stmt",
		Wall:    0.125,
		Phases:  map[string]float64{"init": 0.5, "solve": 1.25},
		Checks:  []float64{1, 2, 4},
		FoM:     42.5,
		Trace:   tr,
		Profile: p,
	}
}

func TestKeyHashStableAndSensitive(t *testing.T) {
	base := sampleKey()
	if base.Hash() != sampleKey().Hash() {
		t.Fatal("identical keys hash differently")
	}
	variants := map[string]Key{}
	k := base
	k.Spec += "x"
	variants["Spec"] = k
	k = base
	k.Mode = "tsc"
	variants["Mode"] = k
	k = base
	k.Seed++
	variants["Seed"] = k
	k = base
	k.Noise += "x"
	variants["Noise"] = k
	k = base
	k.Faults = "oneoff:rank=1"
	variants["Faults"] = k
	k = base
	k.Config += "x"
	variants["Config"] = k
	k = base
	k.Analyze = false
	variants["Analyze"] = k
	k = base
	k.Version = "sim2"
	variants["Version"] = k
	seen := map[string]string{base.Hash(): "base"}
	for field, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("changing %s collided with %s", field, prev)
		}
		seen[h] = field
	}
}

// Length-prefixed hashing: shifting a byte across a field boundary must
// change the address, or distinct jobs could share an entry.
func TestKeyHashFieldBoundaries(t *testing.T) {
	a := Key{Spec: "ab", Mode: "c"}
	b := Key{Spec: "a", Mode: "bc"}
	if a.Hash() == b.Hash() {
		t.Fatal("field boundary lost in hash")
	}
}

func TestEntryRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := sampleKey()
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	want := sampleEntry()
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mutated the entry:\ngot  %+v\nwant %+v", got, want)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

// Reference runs cache too: no trace, no profile, empty phase map.
func TestEntryRoundTripMinimal(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := &Entry{Mode: "", Wall: 2.5, Phases: map[string]float64{}, Checks: []float64{0.5}}
	key := sampleKey()
	key.Mode = ""
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mutated the entry:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := sampleKey()
	if err := c.Put(key, sampleEntry()); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.ltr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one entry file, got %v (%v)", files, err)
	}
	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"bad magic":  func(b []byte) []byte { b[0] = 'X'; return b },
		"bit flip":   func(b []byte) []byte { b[len(b)-3] ^= 0xff; return b },
		"empty file": func([]byte) []byte { return nil },
		// Ten bytes claiming a mode string of 2^30-1 bytes: the claim
		// must not size an allocation before the entry is rejected.
		"huge mode length": func([]byte) []byte { return hugeModeEntry },
	} {
		orig, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[0], corrupt(append([]byte(nil), orig...)), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ok := c.Get(key)
		runtime.ReadMemStats(&after)
		if ok && name != "bit flip" {
			// A flipped float bit still decodes; structural damage must not.
			t.Fatalf("%s entry returned a hit", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("%s entry: Get allocated %d bytes", name, alloc)
		}
		if err := os.WriteFile(files[0], orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("restored entry no longer readable")
	}
}

// hugeModeEntry is a 10-byte entry: magic, version 3 and a mode-string
// length of 2^30-1 with nothing behind it.
var hugeModeEntry = append([]byte("LTRR\x03"), binary.AppendUvarint(nil, 1<<30-1)...)

func TestOpenRejectsUnwritableParent(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "f", "\x00bad")); err == nil {
		t.Fatal("expected error for invalid directory")
	}
}
