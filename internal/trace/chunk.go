package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Trace file format (version 2, the only one).  A trace is an
// append-only sequence of self-contained records, so a recorder holds
// only the active chunk per location in memory and a reader can decode
// any chunk independently (all integers are uvarints unless noted):
//
//	magic "LTRC" (4 bytes), version uvarint (= 2)
//	clock name: uvarint length + bytes
//	records, each introduced by a tag byte:
//	    0x01 defs: uvarint new-region count, per region name (len+bytes)
//	         + role (1 byte); uvarint new-location count, per location
//	         rank + thread.  Defs records are incremental — each carries
//	         only definitions not yet written — and always precede the
//	         first chunk that references them, so a truncated file still
//	         resolves every surviving chunk.
//	    0x02 chunk: location, event count, first vtime, last vtime,
//	         raw (uncompressed) byte length, compressed byte length,
//	         CRC-32 (IEEE, 4 bytes little-endian) of the compressed
//	         payload, then the flate-compressed payload.  The payload
//	         holds the chunk's events — kind byte, time delta, region,
//	         A/B/C zigzag — with the time delta restarting from zero, so
//	         every chunk decodes without context from its predecessors.
//	    0x03 index: uvarint body length, body, CRC-32 of the body.  The
//	         body repeats the full region and location tables (with
//	         per-location total event counts) and lists every chunk's
//	         file offset, location, event count, vtime span and sizes —
//	         enough to answer range queries without touching the chunks.
//	trailer: 8-byte little-endian file offset of the index record's tag
//	byte, then the magic "LTIX".  Readers that find a valid trailer seek
//	straight to the index; readers that don't (truncated file) fall back
//	to a sequential record scan, keeping every chunk that decodes
//	cleanly.
const (
	magic        = "LTRC"
	traceVersion = 2

	tagDefs  = 0x01
	tagChunk = 0x02
	tagIndex = 0x03

	indexMagic = "LTIX"

	// DefaultChunkEvents is the number of events buffered per location
	// before the active chunk is compressed and spilled to the writer.
	// At 32 bytes per in-memory event this bounds the recorder's state
	// to ~128 KiB per location regardless of run length.
	DefaultChunkEvents = 4096

	// maxChunkBytes caps the declared raw/compressed size of a single
	// chunk so a corrupted header cannot provoke a huge allocation.
	maxChunkBytes = 1 << 26
)

// ChunkInfo describes one chunk as listed in the trailing index (or
// reconstructed by a sequential scan).
type ChunkInfo struct {
	Offset    int64 // file offset of the chunk record's tag byte
	Loc       int
	Events    int
	FirstTime uint64
	LastTime  uint64
	RawLen    int // uncompressed payload bytes
	CompLen   int // compressed payload bytes
}

// ChunkWriter records a trace directly into the chunked on-disk format.
// It mirrors the *Trace building API (Region, AddLocation, Record) but
// holds only the active chunk per location in memory: when a location's
// buffer reaches ChunkEvents events it is delta-encoded, compressed and
// spilled to the underlying writer.  Close flushes the remaining
// partial chunks and appends the index and trailer.
type ChunkWriter struct {
	bw  *bufio.Writer
	off int64 // bytes written through bw (logical file offset)
	err error

	clock     string
	regions   []RegionDef
	regionIDs map[string]RegionID
	locs      []chunkWriterLoc

	sentRegions int // defs records written cover regions[:sentRegions]
	sentLocs    int // ... and locs[:sentLocs]

	// ChunkEvents is the per-location chunk size in events.  It may be
	// set between NewChunkWriter and the first Record; the default is
	// DefaultChunkEvents.
	ChunkEvents int

	index []ChunkInfo

	raw  bytes.Buffer // reusable delta-encode buffer
	comp bytes.Buffer // reusable compression buffer
	fw   *flate.Writer
	varb [binary.MaxVarintLen64]byte
}

type chunkWriterLoc struct {
	rank, thread int
	events       []Event
	total        int
}

// NewChunkWriter starts a chunked trace on w.  The header is written
// immediately; call Close to finish the file.
func NewChunkWriter(w io.Writer, clock string) *ChunkWriter {
	cw := &ChunkWriter{
		bw:          bufio.NewWriter(w),
		clock:       clock,
		regionIDs:   make(map[string]RegionID),
		ChunkEvents: DefaultChunkEvents,
	}
	cw.writeString(magic)
	cw.putU(traceVersion)
	cw.putS(clock)
	return cw
}

func (cw *ChunkWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.bw.Write(p)
	cw.off += int64(n)
	cw.err = err
}

func (cw *ChunkWriter) writeString(s string) {
	if cw.err != nil {
		return
	}
	n, err := cw.bw.WriteString(s)
	cw.off += int64(n)
	cw.err = err
}

func (cw *ChunkWriter) writeByte(b byte) {
	if cw.err != nil {
		return
	}
	if err := cw.bw.WriteByte(b); err != nil {
		cw.err = err
		return
	}
	cw.off++
}

func (cw *ChunkWriter) putU(v uint64) {
	n := binary.PutUvarint(cw.varb[:], v)
	cw.write(cw.varb[:n])
}

func (cw *ChunkWriter) putS(s string) {
	cw.putU(uint64(len(s)))
	cw.writeString(s)
}

// Region interns a region definition, exactly like (*Trace).Region.
func (cw *ChunkWriter) Region(name string, role Role) RegionID {
	if id, ok := cw.regionIDs[name]; ok {
		if cw.regions[id].Role != role {
			panic(fmt.Sprintf("trace: region %q re-registered with role %v (was %v)",
				name, role, cw.regions[id].Role))
		}
		return id
	}
	id := RegionID(len(cw.regions))
	cw.regions = append(cw.regions, RegionDef{Name: name, Role: role})
	cw.regionIDs[name] = id
	return id
}

// AddLocation appends a location stream and returns its index.
func (cw *ChunkWriter) AddLocation(rank, thread int) int {
	cw.locs = append(cw.locs, chunkWriterLoc{rank: rank, thread: thread})
	return len(cw.locs) - 1
}

// Record appends an event to location l, spilling a full chunk to the
// underlying writer.  It is safe to keep recording after a write error;
// the error surfaces from Close.
func (cw *ChunkWriter) Record(l int, e Event) {
	loc := &cw.locs[l]
	if loc.events == nil {
		n := cw.ChunkEvents
		if n <= 0 {
			n = DefaultChunkEvents
		}
		loc.events = make([]Event, 0, n)
	}
	loc.events = append(loc.events, e)
	loc.total++
	if len(loc.events) >= cap(loc.events) {
		cw.flushLoc(l)
	}
}

// flushDefs writes an incremental defs record covering any regions or
// locations defined since the last one.
func (cw *ChunkWriter) flushDefs() {
	nr := len(cw.regions) - cw.sentRegions
	nl := len(cw.locs) - cw.sentLocs
	if nr == 0 && nl == 0 {
		return
	}
	cw.writeByte(tagDefs)
	cw.putU(uint64(nr))
	for _, r := range cw.regions[cw.sentRegions:] {
		cw.putS(r.Name)
		cw.writeByte(byte(r.Role))
	}
	cw.putU(uint64(nl))
	for _, l := range cw.locs[cw.sentLocs:] {
		cw.putU(uint64(l.rank))
		cw.putU(uint64(l.thread))
	}
	cw.sentRegions = len(cw.regions)
	cw.sentLocs = len(cw.locs)
}

// flushLoc spills location l's buffered events as one chunk record.
func (cw *ChunkWriter) flushLoc(l int) {
	loc := &cw.locs[l]
	if len(loc.events) == 0 {
		return
	}
	cw.flushDefs()

	cw.raw.Reset()
	prev := uint64(0)
	for _, e := range loc.events {
		cw.raw.WriteByte(byte(e.Kind))
		n := binary.PutUvarint(cw.varb[:], e.Time-prev)
		cw.raw.Write(cw.varb[:n])
		prev = e.Time
		n = binary.PutUvarint(cw.varb[:], uint64(e.Region))
		cw.raw.Write(cw.varb[:n])
		n = binary.PutVarint(cw.varb[:], int64(e.A))
		cw.raw.Write(cw.varb[:n])
		n = binary.PutVarint(cw.varb[:], int64(e.B))
		cw.raw.Write(cw.varb[:n])
		n = binary.PutVarint(cw.varb[:], e.C)
		cw.raw.Write(cw.varb[:n])
	}

	cw.comp.Reset()
	if cw.fw == nil {
		fw, err := flate.NewWriter(&cw.comp, flate.BestSpeed)
		if err != nil {
			if cw.err == nil {
				cw.err = err
			}
			return
		}
		cw.fw = fw
	} else {
		cw.fw.Reset(&cw.comp)
	}
	if _, err := cw.fw.Write(cw.raw.Bytes()); err != nil {
		if cw.err == nil {
			cw.err = err
		}
		return
	}
	if err := cw.fw.Close(); err != nil {
		if cw.err == nil {
			cw.err = err
		}
		return
	}

	info := ChunkInfo{
		Offset:    cw.off,
		Loc:       l,
		Events:    len(loc.events),
		FirstTime: loc.events[0].Time,
		LastTime:  loc.events[len(loc.events)-1].Time,
		RawLen:    cw.raw.Len(),
		CompLen:   cw.comp.Len(),
	}
	cw.writeByte(tagChunk)
	cw.putU(uint64(info.Loc))
	cw.putU(uint64(info.Events))
	cw.putU(info.FirstTime)
	cw.putU(info.LastTime)
	cw.putU(uint64(info.RawLen))
	cw.putU(uint64(info.CompLen))
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(cw.comp.Bytes()))
	cw.write(crcb[:])
	cw.write(cw.comp.Bytes())
	cw.index = append(cw.index, info)
	loc.events = loc.events[:0]
}

// Close flushes every location's partial chunk, writes the index record
// and trailer, and flushes the underlying writer.
func (cw *ChunkWriter) Close() error {
	for l := range cw.locs {
		cw.flushLoc(l)
	}
	cw.flushDefs() // locations or regions with no events still get defined

	var body bytes.Buffer
	var varb [binary.MaxVarintLen64]byte
	bputU := func(v uint64) {
		n := binary.PutUvarint(varb[:], v)
		body.Write(varb[:n])
	}
	bputS := func(s string) {
		bputU(uint64(len(s)))
		body.WriteString(s)
	}
	bputU(uint64(len(cw.regions)))
	for _, r := range cw.regions {
		bputS(r.Name)
		body.WriteByte(byte(r.Role))
	}
	bputU(uint64(len(cw.locs)))
	for _, l := range cw.locs {
		bputU(uint64(l.rank))
		bputU(uint64(l.thread))
		bputU(uint64(l.total))
	}
	bputU(uint64(len(cw.index)))
	for _, c := range cw.index {
		bputU(uint64(c.Offset))
		bputU(uint64(c.Loc))
		bputU(uint64(c.Events))
		bputU(c.FirstTime)
		bputU(c.LastTime)
		bputU(uint64(c.RawLen))
		bputU(uint64(c.CompLen))
	}

	indexOff := cw.off
	cw.writeByte(tagIndex)
	cw.putU(uint64(body.Len()))
	cw.write(body.Bytes())
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(body.Bytes()))
	cw.write(crcb[:])

	var tail [12]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(indexOff))
	copy(tail[8:], indexMagic)
	cw.write(tail[:])

	if cw.err != nil {
		return cw.err
	}
	return cw.bw.Flush()
}

// WriteChunked serialises an in-memory trace.  Region and location
// indices are preserved, so a round trip through WriteChunked + Read
// reproduces the trace exactly.
func WriteChunked(w io.Writer, t *Trace) error {
	cw := NewChunkWriter(w, t.Clock)
	for _, r := range t.Regions {
		cw.Region(r.Name, r.Role)
	}
	for _, l := range t.Locs {
		cw.AddLocation(l.Rank, l.Thread)
	}
	for li := range t.Locs {
		for _, e := range t.Locs[li].Events {
			cw.Record(li, e)
		}
	}
	return cw.Close()
}
