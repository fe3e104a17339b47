package trace

import (
	"bufio"
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

// posReader is a sequential reader that tracks its absolute offset, so
// the record scanner can record where each record starts.
type posReader struct {
	br  *bufio.Reader
	off int64
}

func (p *posReader) ReadByte() (byte, error) {
	b, err := p.br.ReadByte()
	if err == nil {
		p.off++
	}
	return b, err
}

func (p *posReader) full(b []byte) error {
	n, err := io.ReadFull(p.br, b)
	p.off += int64(n)
	return err
}

func (p *posReader) skip(n int) error {
	k, err := p.br.Discard(n)
	p.off += int64(k)
	return err
}

func (p *posReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(p)
}

// str reads a length-prefixed string, naming section in its errors.
func (p *posReader) str(section string) (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", fail(section+" length", err)
	}
	if n > maxStringLen {
		return "", fmt.Errorf("trace: implausible %s length %d", section, n)
	}
	b := make([]byte, n)
	if err := p.full(b); err != nil {
		return "", fail(section, err)
	}
	return string(b), nil
}

// chunkHeader is the decoded fixed part of a chunk record.
type chunkHeader struct {
	info ChunkInfo
	crc  uint32
}

// maxChunkRecordHeader bounds the encoded size of a chunk record's
// header: the tag byte, six varints and the 4-byte CRC.
const maxChunkRecordHeader = 1 + 6*binary.MaxVarintLen64 + 4

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
			return h, 0, fmt.Errorf("%w while reading chunk header", ErrTruncated)
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
		return h, 0, fmt.Errorf("%w while reading chunk header", ErrTruncated)
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

// chunkHeader parses the header of the chunk record whose tag byte (at
// tagOff) was just consumed.
func (p *posReader) chunkHeader(tagOff int64) (chunkHeader, error) {
	b, _ := p.br.Peek(maxChunkRecordHeader - 1) // short at end of input
	h, n, err := parseChunkHeader(b, tagOff)
	if err != nil {
		return h, err
	}
	return h, p.skip(n)
}

// chunkDecoder fetches, decompresses and decodes chunk records, reusing
// its buffers and flate state across the chunks of one decode.
type chunkDecoder struct {
	rec  []byte // the raw chunk record
	comp []byte // its compressed payload, a window of rec
	raw  bytes.Buffer
	fr   io.ReadCloser
	lim  io.LimitedReader
	src  bytes.Reader
}

// decode verifies the CRC, inflates the payload and appends the decoded
// events to dst.  The compressed bytes must already be in d.comp.  The
// inflate buffer grows with the bytes actually inflated, never with the
// header's claimed length.  The header's span sits outside the CRC, so
// the first and last decoded stamps must equal it: index pruning trusts
// the span without decoding.
func (d *chunkDecoder) decode(h chunkHeader, dst []Event) ([]Event, error) {
	if crc32.ChecksumIEEE(d.comp) != h.crc {
		return dst, fmt.Errorf("%w: CRC mismatch", ErrBadChunk)
	}
	d.src.Reset(d.comp)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.src)
	} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return dst, fmt.Errorf("%w: %v", ErrBadChunk, err)
	}
	d.raw.Reset()
	d.lim = io.LimitedReader{R: d.fr, N: int64(h.info.RawLen) + 1}
	if _, err := d.raw.ReadFrom(&d.lim); err != nil {
		return dst, fmt.Errorf("%w: inflating payload: %v", ErrBadChunk, err)
	}
	if d.raw.Len() != h.info.RawLen {
		return dst, fmt.Errorf("%w: payload is not the declared %d bytes", ErrBadChunk, h.info.RawLen)
	}

	b := d.raw.Bytes()
	start := len(dst)
	off := 0
	prev := uint64(0)
	var f [5]uint64 // time delta, region, then A, B, C zigzag-encoded
	for i := 0; i < h.info.Events; i++ {
		if off >= len(b) {
			return dst, fmt.Errorf("%w: payload ends at event %d/%d", ErrBadChunk, i+1, h.info.Events)
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
				return dst, fmt.Errorf("%w: bad varint at event %d/%d", ErrBadChunk, i+1, h.info.Events)
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
		return dst, fmt.Errorf("%w: %d trailing payload bytes after %d events", ErrBadChunk, len(b)-off, h.info.Events)
	}
	if n := len(dst); n > start && (dst[start].Time != h.info.FirstTime || dst[n-1].Time != h.info.LastTime) {
		return dst, fmt.Errorf("%w: events span [%d, %d], header claims [%d, %d]",
			ErrBadChunk, dst[start].Time, dst[n-1].Time, h.info.FirstTime, h.info.LastTime)
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

// readDefs parses a defs record, invoking the callbacks for each new
// region and location.  haveRegions/haveLocs are the counts before this
// record, for the sanity caps.
func readDefs(p *posReader, region func(string, Role), loc func(int, int), haveRegions, haveLocs int) error {
	nr, err := p.uvarint()
	if err != nil {
		return fail("defs region count", err)
	}
	if nr+uint64(haveRegions) > maxRegions {
		return fmt.Errorf("trace: implausible region count %d", nr+uint64(haveRegions))
	}
	for i := uint64(0); i < nr; i++ {
		name, err := p.str("defs region name")
		if err != nil {
			return err
		}
		role, err := p.ReadByte()
		if err != nil {
			return fail("defs region role", err)
		}
		region(name, Role(role))
	}
	nl, err := p.uvarint()
	if err != nil {
		return fail("defs location count", err)
	}
	if nl+uint64(haveLocs) > maxLocations {
		return fmt.Errorf("trace: implausible location count %d", nl+uint64(haveLocs))
	}
	for i := uint64(0); i < nl; i++ {
		rank, err := p.uvarint()
		if err != nil {
			return fail("defs location rank", err)
		}
		thread, err := p.uvarint()
		if err != nil {
			return fail("defs location thread", err)
		}
		loc(int(rank), int(thread))
	}
	return nil
}

// LocInfo is one location of a trace file: its identity and how many
// events its chunks claim.
type LocInfo struct {
	Rank, Thread int
	Events       int
}

// ChunkFile is a random-access view of a trace file: the definition
// tables and the chunk index, from which Trace and Range decode.  Open
// it with OpenChunkFile (or NewChunkFile over any io.ReaderAt).  If the
// trailing index is missing or corrupt — a truncated recording — the
// constructor falls back to the sequential record scan and keeps every
// chunk whose record is whole; whatever kept the file from proving
// itself complete is reported by Damage while the surviving chunks stay
// readable.
type ChunkFile struct {
	ra   io.ReaderAt
	size int64
	c    io.Closer
	path string // stamped onto RecordErrors, when known

	Clock   string
	Regions []RegionDef

	locs      []LocInfo
	chunks    []ChunkInfo // file order
	locChunks [][]int     // per location, indices into chunks

	// IndexOK reports whether the trailing index was present and
	// passed its CRC; when false the chunk list was rebuilt by a
	// sequential scan.
	IndexOK bool

	// Damage is nil when the file is complete: its index loaded, or the
	// fallback scan reached the index record.  Otherwise it describes
	// why not — a structured error for a corrupt record, a *RecordError
	// wrapping ErrTruncated for a record cut off by the end of the file,
	// or ErrTruncated for a file that ends between records.  The chunks
	// before the damage remain readable.
	Damage error
}

// OpenChunkFile opens a trace file for random access.  It fails only on
// files whose header is unreadable; see NewChunkFile.
func OpenChunkFile(path string) (*ChunkFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cf, err := newChunkFile(f, st.Size(), path)
	if err != nil {
		f.Close()
		return nil, withPath(path, err)
	}
	cf.c = f
	return cf, nil
}

// Close releases the underlying file, if OpenChunkFile opened one.
func (cf *ChunkFile) Close() error {
	if cf.c != nil {
		return cf.c.Close()
	}
	return nil
}

// NewChunkFile builds a ChunkFile over an in-memory or on-disk trace
// image.  It fails only when the header (magic, version, clock name) is
// unreadable; every later problem is reported by Damage.
func NewChunkFile(ra io.ReaderAt, size int64) (*ChunkFile, error) {
	return newChunkFile(ra, size, "")
}

func newChunkFile(ra io.ReaderAt, size int64, path string) (*ChunkFile, error) {
	cf := &ChunkFile{ra: ra, size: size, path: path}
	hdr := cf.section(0)
	if err := cf.readHeader(hdr); err != nil {
		return nil, err
	}
	if cf.loadIndex() {
		cf.IndexOK = true
		cf.locChunks = make([][]int, len(cf.locs))
		for i, c := range cf.chunks {
			cf.locChunks[c.Loc] = append(cf.locChunks[c.Loc], i)
		}
		return cf, nil
	}
	s := recordScan{resume: hdr.off}
	cf.scanSealed(&s)
	switch {
	case s.damage != nil:
		cf.Damage = s.damage
	case s.torn != nil:
		cf.Damage = s.torn
	case !s.done:
		cf.Damage = fmt.Errorf("%w: file ends at offset %d without an index record", ErrTruncated, s.resume)
	}
	return cf, nil
}

func (cf *ChunkFile) section(off int64) *posReader {
	sr := io.NewSectionReader(cf.ra, off, cf.size-off)
	return &posReader{br: bufio.NewReader(sr), off: off}
}

// readHeader consumes the magic, version and clock name.
func (cf *ChunkFile) readHeader(p *posReader) error {
	head := make([]byte, 4)
	if err := p.full(head); err != nil {
		return fail("magic", err)
	}
	if string(head) != magic {
		return fmt.Errorf("trace: bad magic %q (not an LTRC trace)", head)
	}
	ver, err := p.uvarint()
	if err != nil {
		return fail("version", err)
	}
	if ver != traceVersion {
		return fmt.Errorf("trace: unsupported version %d (this reader handles version %d)", ver, traceVersion)
	}
	clock, err := p.str("clock name")
	if err != nil {
		return err
	}
	cf.Clock = clock
	return nil
}

// loadIndex tries the trailer + index record; it reports success.  An
// index whose per-location totals disagree with its own chunk list is
// rejected, so a claimed event count is always backed by chunk records.
func (cf *ChunkFile) loadIndex() bool {
	if cf.size < 12 {
		return false
	}
	var tail [12]byte
	if _, err := cf.ra.ReadAt(tail[:], cf.size-12); err != nil {
		return false
	}
	if string(tail[8:]) != indexMagic {
		return false
	}
	off := int64(binary.LittleEndian.Uint64(tail[:8]))
	if off <= 0 || off >= cf.size-12 {
		return false
	}
	p := cf.section(off)
	tag, err := p.ReadByte()
	if err != nil || tag != tagIndex {
		return false
	}
	n, err := p.uvarint()
	if err != nil || n > uint64(cf.size-p.off) {
		return false
	}
	body := make([]byte, n)
	if err := p.full(body); err != nil {
		return false
	}
	var crcb [4]byte
	if err := p.full(crcb[:]); err != nil {
		return false
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcb[:]) {
		return false
	}

	bp := &posReader{br: bufio.NewReader(bytes.NewReader(body))}
	nr, err := bp.uvarint()
	if err != nil || nr > maxRegions {
		return false
	}
	regions := make([]RegionDef, 0, min(nr, n))
	for i := uint64(0); i < nr; i++ {
		name, err := bp.str("index region name")
		if err != nil {
			return false
		}
		role, err := bp.ReadByte()
		if err != nil {
			return false
		}
		regions = append(regions, RegionDef{Name: name, Role: Role(role)})
	}
	nl, err := bp.uvarint()
	if err != nil || nl > maxLocations {
		return false
	}
	locs := make([]LocInfo, 0, min(nl, n))
	for i := uint64(0); i < nl; i++ {
		var v [3]uint64
		for j := range v {
			if v[j], err = bp.uvarint(); err != nil {
				return false
			}
		}
		locs = append(locs, LocInfo{Rank: int(v[0]), Thread: int(v[1]), Events: int(v[2])})
	}
	nc, err := bp.uvarint()
	if err != nil || nc > n {
		return false
	}
	chunks := make([]ChunkInfo, 0, nc)
	counted := make([]uint64, nl)
	for i := uint64(0); i < nc; i++ {
		var v [7]uint64
		for j := range v {
			if v[j], err = bp.uvarint(); err != nil {
				return false
			}
		}
		if v[0] >= uint64(cf.size) || v[1] >= nl || v[5] > maxChunkBytes || v[6] > maxChunkBytes || v[2] > v[5]+1 {
			return false
		}
		counted[v[1]] += v[2]
		chunks = append(chunks, ChunkInfo{
			Offset: int64(v[0]), Loc: int(v[1]), Events: int(v[2]),
			FirstTime: v[3], LastTime: v[4], RawLen: int(v[5]), CompLen: int(v[6]),
		})
	}
	for i, l := range locs {
		if uint64(l.Events) != counted[i] {
			return false
		}
	}
	cf.Regions = regions
	cf.locs = locs
	cf.chunks = chunks
	return true
}

// recordScan is the state of a sequential scan over a record stream:
// where it stopped and why.
type recordScan struct {
	resume int64        // offset of the first byte not covered by a whole record
	done   bool         // the index record was reached: the file is complete
	torn   *RecordError // the record cut off by the end of the file, if any
	damage error        // structurally impossible bytes
}

// scanSealed is the one record scanner, shared by NewChunkFile's
// index-less fallback and Read's check that an indexed file's records
// tile it (checkRecords).  It parses records from s.resume to the end
// of the image, parsing record headers only (chunk payloads are
// skipped, not decoded), and adds each record's definitions or chunk to
// cf once the whole record is on hand.  It stops at the first record it
// cannot take whole and classifies why:
//
//   - a clean record boundary at the end of the image: nothing torn;
//   - a record cut off by the end of the image: a torn record,
//     described by s.torn as a *RecordError (location, chunk ordinal,
//     file offset); s.resume stays at its tag byte;
//   - the index record: the writer closed the file, s.done is set;
//   - anything structurally impossible (unknown tag, implausible
//     header): s.damage.
//
// Torn versus damaged is decided by error class: truncation errors mean
// "the file was cut", everything else means "the bytes are wrong".
func (cf *ChunkFile) scanSealed(s *recordScan) {
	p := cf.section(s.resume)
	for {
		tagOff := p.off
		tag, err := p.ReadByte()
		if err != nil {
			if err != io.EOF {
				s.damage = fail("record tag", err)
			}
			return
		}
		switch tag {
		case tagDefs:
			if !cf.scanDefs(p, tagOff, s) {
				return
			}
		case tagChunk:
			if !cf.scanChunk(p, tagOff, s) {
				return
			}
		case tagIndex:
			// The writer emits the index last, after every chunk.  It
			// repeats what the records already said, so it is not
			// parsed.
			s.done = true
			return
		default:
			s.damage = fmt.Errorf("trace: unknown record tag 0x%02x at offset %d", tag, tagOff)
			return
		}
	}
}

// truncation reports whether err means "the file was cut" rather than
// "the bytes are wrong".
func truncation(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// scanDefs parses one defs record.  New definitions are staged and only
// merged into cf when the whole record parsed, so a defs record cut
// mid-way is never half-applied.  It reports whether the record was
// taken.
func (cf *ChunkFile) scanDefs(p *posReader, tagOff int64, s *recordScan) bool {
	var regions []RegionDef
	var locs []LocInfo
	err := readDefs(p,
		func(name string, role Role) { regions = append(regions, RegionDef{Name: name, Role: role}) },
		func(rank, thread int) { locs = append(locs, LocInfo{Rank: rank, Thread: thread}) },
		len(cf.Regions), len(cf.locs))
	if err != nil {
		if truncation(err) {
			s.torn = &RecordError{Path: cf.path, Loc: -1, Offset: tagOff,
				Err: fmt.Errorf("%w while reading defs record", ErrTruncated)}
		} else {
			s.damage = err
		}
		return false
	}
	cf.Regions = append(cf.Regions, regions...)
	cf.locs = append(cf.locs, locs...)
	for len(cf.locChunks) < len(cf.locs) {
		cf.locChunks = append(cf.locChunks, nil)
	}
	s.resume = p.off
	return true
}

// scanChunk parses one chunk record's header and adds the chunk if its
// payload is wholly in the image.  It reports whether the record was
// taken.
func (cf *ChunkFile) scanChunk(p *posReader, tagOff int64, s *recordScan) bool {
	h, err := p.chunkHeader(tagOff)
	if err != nil {
		if truncation(err) {
			s.torn = cf.recordErr(h.info, len(cf.chunks), err)
		} else {
			s.damage = err
		}
		return false
	}
	if h.info.Loc >= len(cf.locs) {
		s.damage = fmt.Errorf("trace: chunk at offset %d references undefined location %d (have %d)",
			tagOff, h.info.Loc, len(cf.locs))
		return false
	}
	if p.off+int64(h.info.CompLen) > cf.size {
		s.torn = cf.recordErr(h.info, len(cf.chunks), fmt.Errorf("%w while reading chunk payload", ErrTruncated))
		return false
	}
	if err := p.skip(h.info.CompLen); err != nil {
		s.damage = fail("chunk payload", err)
		return false
	}
	cf.locChunks[h.info.Loc] = append(cf.locChunks[h.info.Loc], len(cf.chunks))
	cf.chunks = append(cf.chunks, h.info)
	cf.locs[h.info.Loc].Events += h.info.Events
	s.resume = p.off
	return true
}

// Chunks returns the chunk index in file order.
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

// readChunk loads chunk ci's payload (re-parsing its header from the
// file, which must agree with the index entry) and appends its events to
// dst.  The whole record is fetched with a single ReadAt into d's record
// buffer and parsed in place.
func (cf *ChunkFile) readChunk(d *chunkDecoder, ci int, dst []Event) ([]Event, error) {
	info := cf.chunks[ci]
	need := max(min(int64(maxChunkRecordHeader+info.CompLen), cf.size-info.Offset), 0)
	if int64(cap(d.rec)) < need {
		d.rec = make([]byte, need)
	}
	got, err := cf.ra.ReadAt(d.rec[:need], info.Offset)
	if err != nil && err != io.EOF {
		return dst, cf.recordErr(info, ci, fail("chunk record", err))
	}
	buf := d.rec[:got]
	if len(buf) == 0 || buf[0] != tagChunk {
		return dst, cf.recordErr(info, ci, fmt.Errorf("%w: index points at a non-chunk record", ErrBadChunk))
	}
	h, n, err := parseChunkHeader(buf[1:], info.Offset)
	if err != nil {
		return dst, cf.recordErr(info, ci, err)
	}
	if h.info != info {
		return dst, cf.recordErr(info, ci, fmt.Errorf("%w: header disagrees with index", ErrBadChunk))
	}
	off := 1 + n
	if off+h.info.CompLen > len(buf) {
		return dst, cf.recordErr(info, ci, fmt.Errorf("%w while reading chunk payload", ErrTruncated))
	}
	d.comp = buf[off : off+h.info.CompLen]
	out, err := d.decode(h, dst)
	if err != nil {
		return out, cf.recordErr(info, ci, err)
	}
	return out, nil
}

// maxPresize caps how many events a decode reserves per location up
// front: a file's event counts are claims until its chunks decode, and a
// corrupt count must not size an allocation.  Longer locations grow as
// their events arrive.
const maxPresize = 1 << 16

// Trace decodes every chunk the file lists into a *Trace.  Like the
// constructor it is lenient: it decodes the chunks that survived, and
// fails only when the region table names a region twice or a chunk does
// not decode (a *RecordError naming it).  Read and ReadFile are the
// strict readers.
func (cf *ChunkFile) Trace() (*Trace, error) {
	return cf.Range(0, math.MaxUint64)
}

// Range decodes, as leniently as Trace, the events with minT <= Time <=
// maxT.  The chunk index prunes every chunk whose span misses the
// window, so a narrow window over a large file decodes only the chunks
// it overlaps, and a damaged chunk outside it is never read.
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
			if events, err = cf.readChunk(&d, ci, events); err != nil {
				return nil, err
			}
			if !whole {
				events = events[:start+len(slices.DeleteFunc(events[start:], outside))]
			}
		}
		t.Locs[li].Events = events
	}
	return t, nil
}
