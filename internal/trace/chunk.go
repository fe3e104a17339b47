package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"sync"
)

// Trace file format (version 2, the only one).  A trace is a sequence
// of self-contained records, so a reader can decode any chunk
// independently (all integers are uvarints unless noted):
//
//	magic "LTRC" (4 bytes), version uvarint (= 2)
//	clock name: uvarint length + bytes
//	records, each introduced by a tag byte:
//	    0x01 defs: uvarint new-region count, per region name (len+bytes)
//	         + role (1 byte); uvarint new-location count, per location
//	         rank + thread.  WriteChunked emits one defs record, right
//	         after the header, defining every region and location.
//	         Readers accept several: each carries only definitions not
//	         yet given and precedes the first chunk that references
//	         them.
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
//	         file offset, location, event count, vtime span and sizes.
//	trailer: 8-byte little-endian file offset of the index record's tag
//	byte, then the magic "LTIX".  The index and trailer are a function of
//	the records before them (appendIndex), and they end the file: the
//	reader checks them by re-encoding them from the records it parsed,
//	so a file proves itself complete without the index body being parsed.
const (
	magic        = "LTRC"
	traceVersion = 2

	tagDefs  = 0x01
	tagChunk = 0x02
	tagIndex = 0x03

	indexMagic = "LTIX"

	// chunkEvents is the number of events WriteChunked puts in a chunk,
	// the unit of decoding and of window reads: each location's events
	// are cut into chunks of this many, the last one partial.
	chunkEvents = 4096

	// maxChunkBytes caps the declared raw/compressed size of a single
	// chunk so a corrupted header cannot provoke a huge allocation.
	maxChunkBytes = 1 << 26
)

// ChunkInfo describes one chunk as its record's header gives it, and as
// the trailing index lists it.
type ChunkInfo struct {
	Offset    int64 // file offset of the chunk record's tag byte
	Loc       int
	Events    int
	FirstTime uint64
	LastTime  uint64
	RawLen    int // uncompressed payload bytes
	CompLen   int // compressed payload bytes
}

// WriteChunked serialises a trace in the chunked format.  Region and
// location indices are preserved, so a round trip through WriteChunked
// + Read reproduces the trace exactly.  The bytes are a function of the
// trace alone: the header, one defs record, each location's full chunks
// in location order, then each location's last partial chunk in
// location order, the index and the trailer.
func WriteChunked(w io.Writer, t *Trace) error {
	return writeChunked(w, t, chunkEvents)
}

// flateWriters holds compressors between WriteChunked calls: a new
// flate.Writer allocates about 1.2 MB, and Reset makes a used one write
// the bytes a new one would.  NewWriter fails only on an invalid level.
var flateWriters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.BestSpeed)
	return fw
}}

// chunkEncoder is writeChunked's state: the output and its logical file
// offset, the index so far, and buffers reused from chunk to chunk.  A
// failed write is latched by bw and returned by its Flush.
type chunkEncoder struct {
	bw    *bufio.Writer
	off   int64
	index []ChunkInfo
	hdr   []byte // a chunk record's bytes before its payload
	raw   []byte // a chunk's delta-encoded events
	comp  bytes.Buffer
	fw    *flate.Writer
}

// writeChunked is WriteChunked with chunks of n events.
func writeChunked(w io.Writer, t *Trace, n int) error {
	enc := &chunkEncoder{bw: bufio.NewWriter(w), fw: flateWriters.Get().(*flate.Writer)}
	defer flateWriters.Put(enc.fw)
	locs := make([]LocInfo, len(t.Locs))
	for l, lt := range t.Locs {
		locs[l] = LocInfo{Rank: lt.Rank, Thread: lt.Thread, Events: len(lt.Events)}
	}
	b := appendString(binary.AppendUvarint([]byte(magic), traceVersion), t.Clock)
	if len(t.Regions) > 0 || len(t.Locs) > 0 {
		b = appendTables(append(b, tagDefs), t.Regions, locs, false)
	}
	enc.write(b)
	for l, lt := range t.Locs {
		for i := 0; i+n <= len(lt.Events); i += n {
			enc.chunk(l, lt.Events[i:i+n])
		}
	}
	for l, lt := range t.Locs {
		if tail := lt.Events[len(lt.Events)-len(lt.Events)%n:]; len(tail) > 0 {
			enc.chunk(l, tail)
		}
	}
	enc.write(appendIndex(b[:0], t.Regions, locs, enc.index, enc.off))
	return enc.bw.Flush()
}

// appendIndex appends the index record and the trailer that end a file
// whose records define regions and locs and hold chunks, with the index
// record's tag byte at offset off.  The writer writes these bytes, and
// the reader accepts a file only if it ends in them.
func appendIndex(b []byte, regions []RegionDef, locs []LocInfo, chunks []ChunkInfo, off int64) []byte {
	body := binary.AppendUvarint(appendTables(nil, regions, locs, true), uint64(len(chunks)))
	for _, c := range chunks {
		for _, v := range [...]uint64{uint64(c.Offset), uint64(c.Loc), uint64(c.Events),
			c.FirstTime, c.LastTime, uint64(c.RawLen), uint64(c.CompLen)} {
			body = binary.AppendUvarint(body, v)
		}
	}
	b = binary.AppendUvarint(append(b, tagIndex), uint64(len(body)))
	b = binary.LittleEndian.AppendUint32(append(b, body...), crc32.ChecksumIEEE(body))
	b = binary.LittleEndian.AppendUint64(b, uint64(off))
	return append(b, indexMagic...)
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendTables appends the region and location tables as a defs record
// lays them out or, with totals, as the index body does, where each
// location also carries its event count.
func appendTables(b []byte, regions []RegionDef, locs []LocInfo, totals bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(regions)))
	for _, r := range regions {
		b = append(appendString(b, r.Name), byte(r.Role))
	}
	b = binary.AppendUvarint(b, uint64(len(locs)))
	for _, l := range locs {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(l.Rank)), uint64(l.Thread))
		if totals {
			b = binary.AppendUvarint(b, uint64(l.Events))
		}
	}
	return b
}

func (enc *chunkEncoder) write(p []byte) {
	enc.bw.Write(p) // an error is latched and returned by Flush
	enc.off += int64(len(p))
}

// chunk delta-encodes and compresses evs, location l's next chunk, and
// writes them as one chunk record.
func (enc *chunkEncoder) chunk(l int, evs []Event) {
	raw := enc.raw[:0]
	prev := uint64(0)
	for _, e := range evs {
		raw = binary.AppendUvarint(append(raw, byte(e.Kind)), e.Time-prev)
		prev = e.Time
		raw = binary.AppendUvarint(raw, uint64(e.Region))
		raw = binary.AppendVarint(raw, int64(e.A))
		raw = binary.AppendVarint(raw, int64(e.B))
		raw = binary.AppendVarint(raw, e.C)
	}
	enc.raw = raw

	// The compressor writes to a bytes.Buffer, so it cannot fail.
	enc.comp.Reset()
	enc.fw.Reset(&enc.comp)
	enc.fw.Write(raw)
	enc.fw.Close()

	info := ChunkInfo{
		Offset: enc.off, Loc: l, Events: len(evs),
		FirstTime: evs[0].Time, LastTime: evs[len(evs)-1].Time,
		RawLen: len(raw), CompLen: enc.comp.Len(),
	}
	h := append(enc.hdr[:0], tagChunk)
	for _, v := range [...]uint64{uint64(l), uint64(len(evs)), info.FirstTime, info.LastTime,
		uint64(info.RawLen), uint64(info.CompLen)} {
		h = binary.AppendUvarint(h, v)
	}
	enc.hdr = binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(enc.comp.Bytes()))
	enc.write(enc.hdr)
	enc.write(enc.comp.Bytes())
	enc.index = append(enc.index, info)
}
