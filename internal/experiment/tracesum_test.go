package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/trace"
)

// traceSum is the hex sha256 of tr in the flat layout the committed
// golden checksums were recorded over: magic "LTRC", uvarint 1, the
// clock name, the region table (name, role byte), then per location its
// rank, thread and event count followed by the events (kind byte,
// uvarint time delta, uvarint region, zigzag A, B and C).  Traces are
// stored chunked, but this layout is a pure function of the events, so
// every trace-identity check in this package hashes it: the golden grid
// keeps its meaning without a second trace encoder in production code.
func traceSum(tr *trace.Trace) string {
	h := sha256.New()
	b := binary.AppendUvarint([]byte("LTRC"), 1)
	str := func(s string) { b = append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	str(tr.Clock)
	b = binary.AppendUvarint(b, uint64(len(tr.Regions)))
	for _, r := range tr.Regions {
		str(r.Name)
		b = append(b, byte(r.Role))
	}
	b = binary.AppendUvarint(b, uint64(len(tr.Locs)))
	for _, l := range tr.Locs {
		b = binary.AppendUvarint(b, uint64(l.Rank))
		b = binary.AppendUvarint(b, uint64(l.Thread))
		b = binary.AppendUvarint(b, uint64(len(l.Events)))
		prev := uint64(0)
		for _, e := range l.Events {
			b = append(b, byte(e.Kind))
			b = binary.AppendUvarint(b, e.Time-prev)
			b = binary.AppendUvarint(b, uint64(e.Region))
			b = binary.AppendVarint(b, int64(e.A))
			b = binary.AppendVarint(b, int64(e.B))
			b = binary.AppendVarint(b, e.C)
			prev = e.Time
		}
		h.Write(b)
		b = b[:0]
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
