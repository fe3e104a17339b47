// Package binio reads and writes the binary sections held whole in
// memory: cube's profile section and the run cache's entry.  Integers
// are varint-encoded, a string is its uvarint length and its UTF-8
// bytes (cube's JSON must read back every profile the section holds),
// and a float is its little-endian IEEE-754 bits.
package binio

import (
	"encoding/binary"
	"fmt"
	"math"
	"unicode/utf8"
)

// AppendStr appends s as its uvarint length and its bytes.
func AppendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendFloat appends f's IEEE-754 bits, little-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// A Reader decodes a section held whole in memory.  Every length and
// count is checked against the bytes left before it sizes anything, so
// rejecting a corrupt section costs at most its own size.  The first
// failure sticks; later reads return zero values.
type Reader struct {
	b      []byte
	err    error
	prefix string
}

// NewReader reads b; each error it reports starts with prefix.
func NewReader(prefix string, b []byte) *Reader { return &Reader{b: b, prefix: prefix} }

// Err returns the first failure, nil if there was none.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.b) }

// Fail records a failure unless one is recorded already.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.prefix+format, args...)
	}
}

// Check records err, a failure found outside the reader, unless one is
// recorded already; it reports whether r has failed.
func (r *Reader) Check(err error) bool {
	if r.err == nil {
		r.err = err
	}
	return r.err != nil
}

// Next returns the next n bytes.
func (r *Reader) Next(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.Fail("length %d exceeds the %d bytes left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Uvarint, Varint, Str and Float each read one value of their kind.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *Reader) Str() string {
	s := string(r.Next(r.Uvarint()))
	if !utf8.ValidString(s) {
		r.Fail("string %q is not UTF-8", s)
	}
	return s
}

func (r *Reader) Float() float64 {
	b := r.Next(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Count reads an item count, rejecting one the bytes left cannot hold
// at itemBytes (the item's minimum encoded size) each.
func (r *Reader) Count(itemBytes int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.b)/itemBytes) {
		r.Fail("count %d exceeds what the %d bytes left can hold", n, len(r.b))
		return 0
	}
	return int(n)
}
