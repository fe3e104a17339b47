package cube

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// profileJSON is the serialised form: flat severity records so the file is
// both compact and greppable.  The binary section (AppendBinary) carries
// the same records.
type profileJSON struct {
	Clock    string       `json:"clock"`
	Metrics  []metricJSON `json:"metrics"`
	Paths    []pathJSON   `json:"paths"`
	LocNames []string     `json:"locations"`
	Sev      []sevJSON    `json:"severities"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Desc   string `json:"desc,omitempty"`
	Parent int32  `json:"parent"`
}

type pathJSON struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
}

type sevJSON struct {
	Metric int32     `json:"m"`
	Path   int32     `json:"p"`
	Vals   []float64 `json:"v"`
}

// records returns the profile as flat records: the tables in id order,
// then one severity record per row, by metric id, then path id.
func (p *Profile) records() profileJSON {
	out := profileJSON{Clock: p.Clock, LocNames: p.LocNames}
	for _, m := range p.Metrics {
		out.Metrics = append(out.Metrics, metricJSON{Name: m.Name, Desc: m.Desc, Parent: int32(m.Parent)})
	}
	for _, c := range p.Paths {
		out.Paths = append(out.Paths, pathJSON{Name: c.Name, Parent: int32(c.Parent)})
	}
	for m := range p.Metrics {
		for path, vals := range p.rows(MetricID(m)) {
			if vals != nil {
				out.Sev = append(out.Sev, sevJSON{Metric: int32(m), Path: int32(path), Vals: vals})
			}
		}
	}
	return out
}

// Write serialises the profile as JSON.
func (p *Profile) Write(w io.Writer) error {
	return json.NewEncoder(w).Encode(p.records())
}

// Read deserialises a profile written by Write.  The input must hold
// exactly one JSON value; only whitespace may follow it.  Validation is
// the builder's (see profileBuilder).
func Read(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cube: reading profile: %w", err)
	}
	var in profileJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("cube: decoding profile: %w", err)
	}
	b := newProfileBuilder(in.Clock, in.LocNames)
	for _, m := range in.Metrics {
		if err := b.metric(m.Name, m.Desc, int64(m.Parent)); err != nil {
			return nil, err
		}
	}
	for _, c := range in.Paths {
		if err := b.path(c.Name, int64(c.Parent)); err != nil {
			return nil, err
		}
	}
	for _, s := range in.Sev {
		if err := b.severity(int64(s.Metric), int64(s.Path), uint64(len(s.Vals))); err != nil {
			return nil, err
		}
		for l, v := range s.Vals {
			if err := b.value(l, v); err != nil {
				return nil, err
			}
		}
	}
	return b.p, nil
}

// AppendBinary appends the profile's records to b in the binary layout
// ReadBinary decodes (integers varint-encoded, floats as little-endian
// IEEE-754 bits):
//
//	clock string (uvarint length + bytes)
//	location count, then per location: name string
//	metric count, then per metric: name string, desc string, parent varint
//	path count, then per path: name string, parent varint
//	severity count, then per record: metric varint, path varint,
//	  value count uvarint, a bitmap of ceil(count/8) bytes whose bit
//	  l%8 of byte l/8 marks value l as having non-zero bits, then the
//	  marked values' bits, 8 bytes each
//
// The section carries no magic or version: its container (a run-cache
// entry) versions it.  Like Write, it fails on a non-finite severity.
func (p *Profile) AppendBinary(b []byte) ([]byte, error) {
	return p.records().appendBinary(b)
}

func (in profileJSON) appendBinary(b []byte) ([]byte, error) {
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	str(in.Clock)
	b = binary.AppendUvarint(b, uint64(len(in.LocNames)))
	for _, name := range in.LocNames {
		str(name)
	}
	b = binary.AppendUvarint(b, uint64(len(in.Metrics)))
	for _, m := range in.Metrics {
		str(m.Name)
		str(m.Desc)
		b = binary.AppendVarint(b, int64(m.Parent))
	}
	b = binary.AppendUvarint(b, uint64(len(in.Paths)))
	for _, c := range in.Paths {
		str(c.Name)
		b = binary.AppendVarint(b, int64(c.Parent))
	}
	b = binary.AppendUvarint(b, uint64(len(in.Sev)))
	for _, s := range in.Sev {
		b = binary.AppendVarint(b, int64(s.Metric))
		b = binary.AppendVarint(b, int64(s.Path))
		b = binary.AppendUvarint(b, uint64(len(s.Vals)))
		mask := len(b)
		b = append(b, make([]byte, (len(s.Vals)+7)/8)...)
		for l, v := range s.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b, fmt.Errorf("cube: metric %d, path %d holds %g at location %d", s.Metric, s.Path, v, l)
			}
			if u := math.Float64bits(v); u != 0 {
				b[mask+l/8] |= 1 << (l % 8)
				b = binary.LittleEndian.AppendUint64(b, u)
			}
		}
	}
	return b, nil
}

// ReadBinary decodes a profile that AppendBinary wrote; the section
// must end exactly at the end of b.  Every count is checked against the
// bytes left before it sizes an allocation, and every record passes the
// same validating builder as Read's, so the two decoders accept and
// reject the same profiles.
func ReadBinary(b []byte) (*Profile, error) {
	r := binReader{b: b}
	clock := r.str()
	locs := make([]string, r.count(1))
	for i := range locs {
		locs[i] = r.str()
	}
	nmetric := r.count(3)
	pb := newProfileBuilder(clock, locs)
	for i := 0; i < nmetric && r.err == nil; i++ {
		name, desc := r.str(), r.str()
		if parent := r.varint(); r.err == nil {
			r.check(pb.metric(name, desc, parent))
		}
	}
	npath := r.count(2)
	for i := 0; i < npath && r.err == nil; i++ {
		name := r.str()
		if parent := r.varint(); r.err == nil {
			r.check(pb.path(name, parent))
		}
	}
	nsev := r.count(3)
	for i := 0; i < nsev && r.err == nil; i++ {
		m, path, n := r.varint(), r.varint(), r.uvarint()
		if r.err != nil || r.check(pb.severity(m, path, n)) {
			break
		}
		mask := r.next((n + 7) / 8) // n is at most the location count
		if r.err == nil && n%8 != 0 && mask[len(mask)-1]>>(n%8) != 0 {
			r.fail("severity bitmap of metric %d, path %d marks values past its %d", m, path, n)
		}
		for j, byt := range mask {
			for ; byt != 0 && r.err == nil; byt &= byt - 1 {
				l := 8*j + bits.TrailingZeros8(byt)
				if v := r.next(8); v != nil {
					r.check(pb.value(l, math.Float64frombits(binary.LittleEndian.Uint64(v))))
				}
			}
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d bytes after the profile", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return pb.p, nil
}

// profileBuilder assembles a decoded profile record by record.  Read
// and ReadBinary both decode through it, so it is the one place that
// rejects any profile Write could not have produced in ways the queries
// rely on: a metric or path parent that is neither NoParent nor an
// earlier entry (the trees would hold dangling or cyclic links), a
// duplicate metric name or (parent, name) path, a severity record with
// an out-of-range id, a duplicate (metric, path) pair or more values
// than locations, and a non-finite severity.
type profileBuilder struct {
	p    *Profile
	seen map[[2]int32]bool // the (metric, path) pairs of earlier records
	open [2]int32          // the (metric, path) of the record value adds to
}

func newProfileBuilder(clock string, locs []string) *profileBuilder {
	return &profileBuilder{p: New(clock, locs), seen: make(map[[2]int32]bool)}
}

func (b *profileBuilder) metric(name, desc string, parent int64) error {
	i := len(b.p.Metrics)
	if parent != NoParent && (parent < 0 || parent >= int64(i)) {
		return fmt.Errorf("cube: metric %d (%q) has parent %d, not an earlier metric", i, name, parent)
	}
	if _, dup := b.p.metricByName[name]; dup {
		return fmt.Errorf("cube: metric %q defined twice", name)
	}
	b.p.AddMetric(name, desc, MetricID(parent))
	return nil
}

func (b *profileBuilder) path(name string, parent int64) error {
	i := len(b.p.Paths)
	if parent != NoParent && (parent < 0 || parent >= int64(i)) {
		return fmt.Errorf("cube: path %d (%q) has parent %d, not an earlier path", i, name, parent)
	}
	if _, dup := b.p.pathByKey[pathKey{PathID(parent), name}]; dup {
		return fmt.Errorf("cube: path %q under parent %d defined twice", name, parent)
	}
	b.p.Path(PathID(parent), name)
	return nil
}

// severity opens the record of (metric m, path) with n values.
func (b *profileBuilder) severity(m, path int64, n uint64) error {
	if m < 0 || m >= int64(len(b.p.Metrics)) || path < 0 || path >= int64(len(b.p.Paths)) {
		return fmt.Errorf("cube: severity references unknown metric %d or path %d", m, path)
	}
	key := [2]int32{int32(m), int32(path)}
	if b.seen[key] {
		return fmt.Errorf("cube: severity for metric %d, path %d given twice", m, path)
	}
	b.seen[key] = true
	if n > uint64(b.p.NumLocs()) {
		return fmt.Errorf("cube: severity has %d values for %d locations", n, b.p.NumLocs())
	}
	b.open = key
	return nil
}

// value adds the open record's value at location l, below its count.
func (b *profileBuilder) value(l int, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("cube: metric %d, path %d holds %g at location %d", b.open[0], b.open[1], v, l)
	}
	b.p.Add(MetricID(b.open[0]), PathID(b.open[1]), l, v)
	return nil
}

// binReader decodes a binary section held whole in memory.  The first
// failure sticks; later reads return zero values.
type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("cube: binary profile: "+format, args...)
	}
}

// check records a builder error; it reports whether r has failed.
func (r *binReader) check(err error) bool {
	if r.err == nil {
		r.err = err
	}
	return r.err != nil
}

func (r *binReader) next(n uint64) []byte {
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

func (r *binReader) uvarint() uint64 {
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

func (r *binReader) varint() int64 {
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

func (r *binReader) str() string { return string(r.next(r.uvarint())) }

// count reads an item count, rejecting one the bytes left cannot hold
// at itemBytes (the item's minimum encoded size) each.
func (r *binReader) count(itemBytes int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)/itemBytes) {
		r.fail("count %d exceeds what the %d bytes left can hold", n, len(r.b))
		return 0
	}
	return int(n)
}
