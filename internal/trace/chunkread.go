package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
)

// ErrBadChunk reports a chunk whose payload failed its CRC or decoded
// inconsistently with its header.  Errors from chunk readers wrap it
// (inside a *RecordError carrying the location and chunk ordinal), so
// callers can distinguish payload corruption from plain truncation.
var ErrBadChunk = errors.New("trace: chunk payload corrupt")

// cursor reads a trace file image front to back.
type cursor struct {
	b   []byte
	off int
}

// truncated is the error for an image that ends inside section.
func truncated(section string) error {
	return fmt.Errorf("%w while reading %s", ErrTruncated, section)
}

func (c *cursor) uvarint(section string) (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n == 0 {
		return 0, truncated(section)
	}
	if n < 0 {
		return 0, fmt.Errorf("trace: %s overflows 64 bits", section)
	}
	c.off += n
	return v, nil
}

// next returns the image's next n bytes.
func (c *cursor) next(n uint64, section string) ([]byte, error) {
	if n > uint64(len(c.b)-c.off) {
		return nil, truncated(section)
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

// str reads a length-prefixed string, naming section in its errors.
func (c *cursor) str(section string) (string, error) {
	n, err := c.uvarint(section + " length")
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("trace: implausible %s length %d", section, n)
	}
	b, err := c.next(n, section)
	return string(b), err
}

// chunkHeader is the decoded fixed part of a chunk record.
type chunkHeader struct {
	info ChunkInfo
	crc  uint32
}

// parseChunkHeader is the one chunk-header parser.  b holds the bytes
// after the record's tag byte (at file offset tagOff); it returns the
// header and its encoded length.  A b that ends inside the header fails
// with ErrTruncated; info.Loc is then still set (or -1) when the first
// field made it, so even a torn header can name its location.
func parseChunkHeader(b []byte, tagOff int64) (chunkHeader, int, error) {
	h := chunkHeader{info: ChunkInfo{Offset: tagOff, Loc: -1}}
	var f [6]uint64
	n := 0
	for i := range f {
		v, k := binary.Uvarint(b[n:])
		if k == 0 {
			return h, 0, truncated("chunk header")
		}
		if k < 0 {
			return h, 0, fmt.Errorf("trace: chunk header field %d overflows 64 bits", i+1)
		}
		f[i], n = v, n+k
		if i == 0 && v <= maxLocations {
			h.info.Loc = int(v)
		}
	}
	if len(b) < n+4 {
		return h, 0, truncated("chunk header")
	}
	loc, nev, rawLen, compLen := f[0], f[1], f[4], f[5]
	if loc > maxLocations || rawLen > maxChunkBytes || compLen > maxChunkBytes || nev > rawLen+1 {
		return h, 0, fmt.Errorf("trace: implausible chunk header (loc %d, %d events, %d raw bytes, %d compressed)",
			loc, nev, rawLen, compLen)
	}
	h.info = ChunkInfo{
		Offset: tagOff, Loc: int(loc), Events: int(nev), FirstTime: f[2], LastTime: f[3],
		RawLen: int(rawLen), CompLen: int(compLen),
	}
	h.crc = binary.LittleEndian.Uint32(b[n:])
	return h, n + 4, nil
}

// chunkDecoder inflates and decodes chunk payloads, reusing its buffers
// and flate state across the chunks of one decode.
type chunkDecoder struct {
	raw bytes.Buffer
	fr  io.ReadCloser
	lim io.LimitedReader
	src bytes.Reader
}

// decode inflates comp, the CRC-checked payload of the chunk info
// describes, and appends its events to dst.  The inflate buffer grows
// with the bytes actually inflated, never with the header's claimed
// length.  The header's span sits outside the CRC, so the first and last
// decoded stamps must equal it: a window read trusts the span without
// decoding.
func (d *chunkDecoder) decode(info ChunkInfo, comp []byte, dst []Event) ([]Event, error) {
	d.src.Reset(comp)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.src)
	} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return dst, fmt.Errorf("%w: %v", ErrBadChunk, err)
	}
	d.raw.Reset()
	d.lim = io.LimitedReader{R: d.fr, N: int64(info.RawLen) + 1}
	if _, err := d.raw.ReadFrom(&d.lim); err != nil {
		return dst, fmt.Errorf("%w: inflating payload: %v", ErrBadChunk, err)
	}
	if d.raw.Len() != info.RawLen {
		return dst, fmt.Errorf("%w: payload is not the declared %d bytes", ErrBadChunk, info.RawLen)
	}

	b := d.raw.Bytes()
	start := len(dst)
	off := 0
	prev := uint64(0)
	var f [5]uint64 // time delta, region, then A, B, C zigzag-encoded
	for i := 0; i < info.Events; i++ {
		if off >= len(b) {
			return dst, fmt.Errorf("%w: payload ends at event %d/%d", ErrBadChunk, i+1, info.Events)
		}
		kind := b[off]
		off++
		for j := range f {
			// Most fields fit one byte; longer ones take binary.Uvarint.
			if off < len(b) && b[off] < 0x80 {
				f[j] = uint64(b[off])
				off++
				continue
			}
			v, n := binary.Uvarint(b[off:])
			if n <= 0 {
				return dst, fmt.Errorf("%w: bad varint at event %d/%d", ErrBadChunk, i+1, info.Events)
			}
			f[j] = v
			off += n
		}
		prev += f[0]
		dst = append(dst, Event{
			Kind: EvKind(kind), Time: prev, Region: RegionID(f[1]),
			A: int32(unzigzag(f[2])), B: int32(unzigzag(f[3])), C: unzigzag(f[4]),
		})
	}
	if off != len(b) {
		return dst, fmt.Errorf("%w: %d trailing payload bytes after %d events", ErrBadChunk, len(b)-off, info.Events)
	}
	if n := len(dst); n > start && (dst[start].Time != info.FirstTime || dst[n-1].Time != info.LastTime) {
		return dst, fmt.Errorf("%w: events span [%d, %d], header claims [%d, %d]",
			ErrBadChunk, dst[start].Time, dst[n-1].Time, info.FirstTime, info.LastTime)
	}
	return dst, nil
}

// unzigzag is binary.Varint's decoding of an unsigned varint's value.
func unzigzag(u uint64) int64 {
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// LocInfo is one location of a trace file: its identity and how many
// events its chunks claim.
type LocInfo struct {
	Rank, Thread int
	Events       int
}

// ChunkFile is a trace file parsed in one strict pass over its image:
// the definition tables and the chunk list, from which Trace and Range
// decode.  The chunks' payloads stay windows of the image.  Open it with
// OpenChunkFile, or NewChunkFile over an image already in memory.
type ChunkFile struct {
	path string // stamped onto RecordErrors, when known

	Clock   string
	Regions []RegionDef

	locs      []LocInfo
	chunks    []ChunkInfo // file order
	payloads  [][]byte    // per chunk, its compressed payload
	locChunks [][]int     // per location, indices into chunks
}

// OpenChunkFile reads and parses a trace file; every failure names the
// file.  See NewChunkFile.
func OpenChunkFile(path string) (*ChunkFile, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cf, err := newChunkFile(img, path)
	if err != nil {
		return nil, withPath(path, err)
	}
	return cf, nil
}

// NewChunkFile parses a trace file image written by WriteChunked.  It
// reads the header and then each record once, in file order: a defs
// record extends the tables, and a chunk record's header is parsed and
// its payload's CRC checked.  At the index record the image must end in
// exactly the index and trailer WriteChunked derives from the records
// before it, so a file that does not prove itself complete fails: a cut
// one with an ErrTruncated-wrapped error, and a cut or corrupt chunk
// with a *RecordError naming it.  The payloads inflate only when Trace
// or Range reads them.
func NewChunkFile(img []byte) (*ChunkFile, error) {
	return newChunkFile(img, "")
}

func newChunkFile(img []byte, path string) (*ChunkFile, error) {
	cf := &ChunkFile{path: path}
	idx, err := cf.records(img)
	if err != nil {
		return nil, err
	}
	tail, want := img[idx:], appendIndex(nil, cf.Regions, cf.locs, cf.chunks, int64(idx))
	switch {
	case bytes.Equal(tail, want):
		return cf, nil
	case bytes.HasPrefix(want, tail):
		err = truncated("index record")
	case bytes.HasPrefix(tail, want):
		err = fmt.Errorf("trace: %d bytes after the trailer", len(tail)-len(want))
	default:
		err = errors.New("trace: index record or trailer disagrees with the records before it")
	}
	return nil, &RecordError{Loc: -1, Offset: int64(idx), Err: err}
}

// records parses img's header and then its records up to the index
// record, whose tag byte's offset it returns.
func (cf *ChunkFile) records(img []byte) (int, error) {
	c := &cursor{b: img}
	if err := cf.header(c); err != nil {
		return 0, err
	}
	for c.off < len(img) {
		tagOff := c.off
		tag := img[c.off]
		c.off++
		switch tag {
		case tagDefs:
			if err := cf.defs(c); err != nil {
				if errors.Is(err, ErrTruncated) {
					err = truncated("defs record")
				}
				return 0, &RecordError{Loc: -1, Offset: int64(tagOff), Err: err}
			}
		case tagChunk:
			if err := cf.chunk(c, tagOff); err != nil {
				return 0, err
			}
		case tagIndex:
			return tagOff, nil
		default:
			return 0, fmt.Errorf("trace: unknown record tag 0x%02x at offset %d", tag, tagOff)
		}
	}
	return 0, fmt.Errorf("%w: file ends at offset %d without an index record", ErrTruncated, c.off)
}

// header reads the magic, version and clock name.
func (cf *ChunkFile) header(c *cursor) error {
	head, err := c.next(uint64(len(magic)), "magic")
	if err != nil {
		return err
	}
	if string(head) != magic {
		return fmt.Errorf("trace: bad magic %q (not an LTRC trace)", head)
	}
	ver, err := c.uvarint("version")
	if err != nil {
		return err
	}
	if ver != traceVersion {
		return fmt.Errorf("trace: unsupported version %d (this reader handles version %d)", ver, traceVersion)
	}
	cf.Clock, err = c.str("clock name")
	return err
}

// defs reads the body of a defs record, appending its regions and
// locations to the tables.
func (cf *ChunkFile) defs(c *cursor) error {
	nr, err := c.uvarint("defs region count")
	if err != nil {
		return err
	}
	if nr+uint64(len(cf.Regions)) > maxRegions {
		return fmt.Errorf("trace: implausible region count %d", nr+uint64(len(cf.Regions)))
	}
	for i := uint64(0); i < nr; i++ {
		name, err := c.str("defs region name")
		if err != nil {
			return err
		}
		role, err := c.next(1, "defs region role")
		if err != nil {
			return err
		}
		cf.Regions = append(cf.Regions, RegionDef{Name: name, Role: Role(role[0])})
	}
	nl, err := c.uvarint("defs location count")
	if err != nil {
		return err
	}
	if nl+uint64(len(cf.locs)) > maxLocations {
		return fmt.Errorf("trace: implausible location count %d", nl+uint64(len(cf.locs)))
	}
	for i := uint64(0); i < nl; i++ {
		rank, err := c.uvarint("defs location rank")
		if err != nil {
			return err
		}
		thread, err := c.uvarint("defs location thread")
		if err != nil {
			return err
		}
		cf.locs = append(cf.locs, LocInfo{Rank: int(rank), Thread: int(thread)})
		cf.locChunks = append(cf.locChunks, nil)
	}
	return nil
}

// chunk reads the chunk record whose tag byte, at tagOff, was just
// read, checks its payload's CRC and adds it to the chunk list.
func (cf *ChunkFile) chunk(c *cursor, tagOff int) error {
	h, n, err := parseChunkHeader(c.b[c.off:], int64(tagOff))
	if err != nil {
		return cf.recordErr(h.info, len(cf.chunks), err)
	}
	c.off += n
	if h.info.Loc >= len(cf.locs) {
		return cf.recordErr(h.info, len(cf.chunks),
			fmt.Errorf("trace: chunk names an undefined location (%d defined)", len(cf.locs)))
	}
	payload, err := c.next(uint64(h.info.CompLen), "chunk payload")
	if err == nil && crc32.ChecksumIEEE(payload) != h.crc {
		err = fmt.Errorf("%w: CRC mismatch", ErrBadChunk)
	}
	if err != nil {
		return cf.recordErr(h.info, len(cf.chunks), err)
	}
	cf.locChunks[h.info.Loc] = append(cf.locChunks[h.info.Loc], len(cf.chunks))
	cf.chunks = append(cf.chunks, h.info)
	cf.payloads = append(cf.payloads, payload)
	cf.locs[h.info.Loc].Events += h.info.Events
	return nil
}

// Chunks returns the chunk list in file order.
func (cf *ChunkFile) Chunks() []ChunkInfo { return cf.chunks }

// Locs returns the per-location metadata.
func (cf *ChunkFile) Locs() []LocInfo { return cf.locs }

// recordErr describes a failure in the chunk record info, which is (or
// would be) chunk ci in file order: its location, one-based ordinal
// within the location, first event and file offset.  info.Loc may be -1
// or out of range for a header too torn or corrupt to name it.
func (cf *ChunkFile) recordErr(info ChunkInfo, ci int, err error) *RecordError {
	re := &RecordError{Path: cf.path, Loc: info.Loc, Offset: info.Offset, Err: err}
	if info.Loc < 0 || info.Loc >= len(cf.locs) {
		return re
	}
	li := cf.locs[info.Loc]
	re.Rank, re.Thread, re.Chunk = li.Rank, li.Thread, 1
	for _, idx := range cf.locChunks[info.Loc] {
		if idx >= ci {
			break
		}
		re.Event += cf.chunks[idx].Events
		re.Chunk++
	}
	re.Events = re.Event + info.Events
	return re
}

// maxPresize caps how many events a decode reserves per location up
// front: a file's event counts are claims until its chunks decode, and a
// corrupt count must not size an allocation.  Longer locations grow as
// their events arrive.
const maxPresize = 1 << 16

// Trace decodes every chunk into a *Trace.  It fails when the region
// table names a region twice or a chunk does not decode (a *RecordError
// naming it).
func (cf *ChunkFile) Trace() (*Trace, error) {
	return cf.Range(0, math.MaxUint64)
}

// Range decodes the events with minT <= Time <= maxT.  It inflates only
// the chunks whose header span overlaps the window, so a narrow window
// over a large file decodes only the chunks it overlaps.
func (cf *ChunkFile) Range(minT, maxT uint64) (*Trace, error) {
	t := New(cf.Clock)
	t.Regions = slices.Grow(t.Regions, len(cf.Regions))
	t.Locs = slices.Grow(t.Locs, len(cf.locs))
	for _, r := range cf.Regions {
		if err := t.internRegion(r.Name, r.Role); err != nil {
			return nil, err
		}
	}
	overlaps := func(ci int) bool { return cf.chunks[ci].LastTime >= minT && cf.chunks[ci].FirstTime <= maxT }
	outside := func(e Event) bool { return e.Time < minT || e.Time > maxT }
	whole := minT == 0 && maxT == math.MaxUint64
	var d chunkDecoder
	for li, l := range cf.locs {
		t.AddLocation(l.Rank, l.Thread)
		n := 0
		for _, ci := range cf.locChunks[li] {
			if overlaps(ci) {
				n += cf.chunks[ci].Events
			}
		}
		if n == 0 {
			continue
		}
		events := make([]Event, 0, min(n, maxPresize))
		for _, ci := range cf.locChunks[li] {
			if !overlaps(ci) {
				continue
			}
			start := len(events)
			var err error
			if events, err = d.decode(cf.chunks[ci], cf.payloads[ci], events); err != nil {
				return nil, cf.recordErr(cf.chunks[ci], ci, err)
			}
			if !whole {
				events = events[:start+len(slices.DeleteFunc(events[start:], outside))]
			}
		}
		t.Locs[li].Events = events
	}
	return t, nil
}
