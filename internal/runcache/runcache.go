// Package runcache is a content-addressed on-disk cache for simulated
// run results.  A study's job grid is fully deterministic — the outcome
// of one job is a pure function of (spec identity, mode, seed, noise
// parameters, fault plan, measurement config, code version) — so results
// can be stored under a stable hash of exactly those inputs and reused
// across `ltreport`/`ltverify`/`ltscale` invocations.  Entries reuse the
// repository's canonical encoders: the event trace is stored in the
// trace file format (trace.WriteChunked, read back with the strict
// trace.Read) and the analysis profile as the cube JSON (internal/cube),
// so a cached result decodes deep-equal to a fresh run (asserted by
// tests in internal/experiment).
//
// The cache is safe for concurrent use by the pool's workers: writes go
// to a temporary file and are renamed into place, and two racing writers
// of the same key produce identical bytes.  Any read problem — missing
// file, truncation, corruption, format-version skew — degrades to a
// cache miss, never an error; the job is simply re-run.
package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/cube"
	"repro/internal/trace"
)

// Key names the complete identity of one simulated job.  Every field
// that can change the job's outcome must appear here; the composite
// fields (Spec, Noise, Faults, Config) are canonical string renderings
// produced by the caller.  Version is the caller's code version salt: it
// must change whenever simulation semantics change, so stale entries
// from older binaries can never be mistaken for fresh results.
type Key struct {
	Spec    string // spec identity: name, geometry, pinning, description
	Mode    string // timer mode; "" for an uninstrumented reference run
	Seed    int64  // noise / fault-jitter seed
	Noise   string // noise.Params rendering
	Faults  string // effective fault plan (seed, jitter, faults); "" if none
	Config  string // measurement config rendering; "" if uninstrumented
	Analyze bool   // whether the trace was run through the analyzer
	Version string // caller's code-version salt
}

// Hash returns the key's content address: a hex SHA-256 over the
// length-prefixed fields, so no concatenation of field values can
// collide with another field split.
func (k Key) Hash() string {
	h := sha256.New()
	put := func(s string) {
		var b [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(b[:], uint64(len(s)))
		h.Write(b[:n])
		io.WriteString(h, s)
	}
	put(k.Spec)
	put(k.Mode)
	put(strconv.FormatInt(k.Seed, 10))
	put(k.Noise)
	put(k.Faults)
	put(k.Config)
	put(strconv.FormatBool(k.Analyze))
	put(k.Version)
	return hex.EncodeToString(h.Sum(nil))
}

// Entry is the cached form of one run result.  It mirrors
// experiment.RunResult field for field; the experiment package converts
// between the two (runcache cannot import it without a cycle).
type Entry struct {
	Mode    string
	Wall    float64
	Phases  map[string]float64
	Checks  []float64
	FoM     float64
	Trace   *trace.Trace  // nil for reference runs
	Profile *cube.Profile // nil unless analyzed
	// Applied is the run's applied-fault log (nil without a fault plan).
	Applied []AppliedFault
}

// AppliedFault mirrors faults.AppliedFault field for field (runcache
// cannot import internal/faults for the same cycle reason as Entry).
type AppliedFault struct {
	Kind       string
	Rank, Core int
	Resource   string
	At         float64
	Magnitude  float64
}

// Cache is a content-addressed store rooted at one directory.  Entries
// live at <dir>/<hh>/<hash>.ltr, sharded by the first hash byte so a
// long sweep does not pile tens of thousands of files into one listing.
type Cache struct {
	dir          string
	hits, misses atomic.Int64
}

// Open creates (if needed) and returns the cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns the hit and miss counts since Open.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".ltr")
}

// Get looks a key up.  ok is false on a miss, including every flavour of
// unreadable entry (absent, truncated, corrupt, wrong format version).
// The entry file is read whole, so no length it claims can size an
// allocation beyond the file itself.
func (c *Cache) Get(key Key) (e *Entry, ok bool) {
	b, err := os.ReadFile(c.path(key.Hash()))
	if err == nil {
		e, err = decodeEntry(b)
	}
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// Put stores an entry under the key, atomically: the bytes are written
// to a temporary file in the same directory and renamed into place, so
// a reader never observes a half-written entry and concurrent writers
// of the same key are harmless.
func (c *Cache) Put(key Key, e *Entry) error {
	var buf bytes.Buffer
	if err := encodeEntry(&buf, e); err != nil {
		return fmt.Errorf("runcache: encoding entry: %w", err)
	}
	path := c.path(key.Hash())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}

// Entry file format (integers varint-encoded, floats as little-endian
// IEEE-754 bits):
//
//	magic "LTRR" (4 bytes), version uvarint
//	mode string (uvarint length + bytes)
//	wall f64, fom f64
//	phase count, then per phase (sorted by name): name, value f64
//	check count, then per check: value f64
//	applied-fault count, then per event: kind string, rank varint,
//	  core varint, resource string, at f64, magnitude f64   (version 2+)
//	flags byte (bit 0: trace present, bit 1: profile present)
//	if trace:   uvarint byte length + trace file (trace.WriteChunked)
//	if profile: uvarint byte length + cube JSON (cube/Profile.Write)
//
// Version history: 2 added the applied-fault log; 3 switched the trace
// blob to the chunked compressed format.  Older entries decode as a
// miss (by design: a pre-log binary cannot know what fired, and the
// version bump keeps cache files self-describing across the format
// change).
const (
	entryMagic   = "LTRR"
	entryVersion = 3
)

func encodeEntry(w *bytes.Buffer, e *Entry) error {
	w.WriteString(entryMagic)
	var vb [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(vb[:], v)
		w.Write(vb[:n])
	}
	putS := func(s string) {
		putU(uint64(len(s)))
		w.WriteString(s)
	}
	putF := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		w.Write(b[:])
	}
	putU(entryVersion)
	putS(e.Mode)
	putF(e.Wall)
	putF(e.FoM)
	names := make([]string, 0, len(e.Phases))
	for name := range e.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	putU(uint64(len(names)))
	for _, name := range names {
		putS(name)
		putF(e.Phases[name])
	}
	putU(uint64(len(e.Checks)))
	for _, v := range e.Checks {
		putF(v)
	}
	putI := func(v int64) {
		n := binary.PutVarint(vb[:], v)
		w.Write(vb[:n])
	}
	putU(uint64(len(e.Applied)))
	for _, a := range e.Applied {
		putS(a.Kind)
		putI(int64(a.Rank))
		putI(int64(a.Core))
		putS(a.Resource)
		putF(a.At)
		putF(a.Magnitude)
	}
	var flags byte
	if e.Trace != nil {
		flags |= 1
	}
	if e.Profile != nil {
		flags |= 2
	}
	w.WriteByte(flags)
	blob := func(write func(io.Writer) error) error {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			return err
		}
		putU(uint64(b.Len()))
		w.Write(b.Bytes())
		return nil
	}
	if e.Trace != nil {
		if err := blob(func(w io.Writer) error { return trace.WriteChunked(w, e.Trace) }); err != nil {
			return err
		}
	}
	if e.Profile != nil {
		if err := blob(e.Profile.Write); err != nil {
			return err
		}
	}
	return nil
}

// entryReader decodes an entry image held whole in memory.  Every
// length and count is checked against the bytes left before it sizes
// anything, so rejecting a corrupt entry costs at most its own size.
// The first failure sticks; later reads return zero values.
type entryReader struct {
	b   []byte
	err error
}

func (r *entryReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("runcache: "+format, args...)
	}
}

func (r *entryReader) next(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("length %d exceeds the %d bytes left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *entryReader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *entryReader) i() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *entryReader) s() string { return string(r.next(r.u())) }

func (r *entryReader) f() float64 {
	b := r.next(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// count reads an item count, rejecting one the bytes left cannot hold
// at itemBytes (the item's minimum encoded size) each.
func (r *entryReader) count(itemBytes int) int {
	n := r.u()
	if r.err == nil && n > uint64(len(r.b)/itemBytes) {
		r.fail("count %d exceeds what the %d bytes left can hold", n, len(r.b))
		return 0
	}
	return int(n)
}

func decodeEntry(b []byte) (*Entry, error) {
	if !bytes.HasPrefix(b, []byte(entryMagic)) {
		return nil, fmt.Errorf("runcache: bad magic")
	}
	r := &entryReader{b: b[len(entryMagic):]}
	if ver := r.u(); r.err == nil && ver != entryVersion {
		return nil, fmt.Errorf("runcache: unsupported entry version %d", ver)
	}
	e := &Entry{}
	e.Mode = r.s()
	e.Wall = r.f()
	e.FoM = r.f()
	nphase := r.count(1 + 8)
	e.Phases = make(map[string]float64, nphase)
	for i := 0; i < nphase; i++ {
		name := r.s()
		e.Phases[name] = r.f()
	}
	e.Checks = make([]float64, r.count(8))
	for i := range e.Checks {
		e.Checks[i] = r.f()
	}
	if n := r.count(4 + 2*8); n > 0 {
		e.Applied = make([]AppliedFault, n)
		for i := range e.Applied {
			a := &e.Applied[i]
			a.Kind = r.s()
			a.Rank = int(r.i())
			a.Core = int(r.i())
			a.Resource = r.s()
			a.At = r.f()
			a.Magnitude = r.f()
		}
	}
	flags := r.next(1)
	var traceBlob, profileBlob []byte
	if r.err == nil && flags[0]&1 != 0 {
		traceBlob = r.next(r.u())
	}
	if r.err == nil && flags[0]&2 != 0 {
		profileBlob = r.next(r.u())
	}
	if r.err == nil && (flags[0]&^3 != 0 || len(r.b) != 0) {
		r.fail("unknown flags %#x or %d trailing bytes", flags[0], len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	var err error
	if traceBlob != nil {
		if e.Trace, err = trace.Read(bytes.NewReader(traceBlob)); err != nil {
			return nil, err
		}
	}
	if profileBlob != nil {
		if e.Profile, err = cube.Read(bytes.NewReader(profileBlob)); err != nil {
			return nil, err
		}
	}
	return e, nil
}
