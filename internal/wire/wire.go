// Package wire implements the compact binary encoding used by every RPC
// message in the system. The paper's prototype relied on Boost
// serialization; we substitute a small, allocation-conscious codec with
// explicit little-endian layout so that message bytes are deterministic
// across nodes and releases.
//
// The encoding is positional: writer and reader must agree on the field
// sequence. Variable-length values (byte slices, strings, lists) carry a
// uvarint length prefix. There is no reflection and no schema negotiation;
// each RPC method owns its layout, which keeps the hot encode/decode paths
// free of interface conversions.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Common decoding errors. Decoders fail softly: after the first error the
// Reader is poisoned and every subsequent Get returns the zero value, so
// call sites may decode a full struct and check Err once at the end.
var (
	// ErrShort reports a truncated buffer.
	ErrShort = errors.New("wire: buffer too short")
	// ErrOverflow reports a varint that does not fit the target width.
	ErrOverflow = errors.New("wire: varint overflows")
	// ErrPadded reports a varint with a redundant trailing zero group.
	// Writers never produce one, so every accepted message has exactly
	// one encoding and a decoder's output re-encodes byte-identically.
	ErrPadded = errors.New("wire: varint not minimally encoded")
	// ErrTooLarge reports a length prefix exceeding the configured limit.
	ErrTooLarge = errors.New("wire: length prefix exceeds limit")
)

// MaxElemLen bounds any single length-prefixed element. It protects a
// decoder from allocating unbounded memory on corrupt or hostile input.
// 256 MiB comfortably exceeds the largest page or batched metadata frame
// the system produces.
const MaxElemLen = 256 << 20

// Writer accumulates an encoded message. The zero value is ready to use.
// Writer never fails; sizing errors surface at the decoding side.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Reset truncates the writer for reuse, keeping the allocation.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the encoded message. The slice aliases the writer's
// internal buffer and is invalidated by further writes or Reset.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current encoded length in bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Uint16 appends a fixed-width little-endian uint16.
func (w *Writer) Uint16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// Uint32 appends a fixed-width little-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a fixed-width little-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Uvarint appends a variable-width unsigned integer.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a variable-width signed integer (zig-zag).
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Float64 appends an IEEE-754 double in little-endian byte order.
func (w *Writer) Float64(v float64) {
	w.Uint64(math.Float64bits(v))
}

// Bytes appends a uvarint length prefix followed by the raw bytes.
func (w *Writer) BytesField(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.buf = append(w.buf, p...)
}

// String appends a uvarint length prefix followed by the string bytes.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends bytes verbatim, without a length prefix. The reader must
// know the exact width from context.
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// Uint64Slice appends a uvarint count followed by fixed-width elements.
func (w *Writer) Uint64Slice(vs []uint64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uint64(v)
	}
}

// Uint32Slice appends a uvarint count followed by fixed-width elements.
func (w *Writer) Uint32Slice(vs []uint32) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uint32(v)
	}
}

// StringSlice appends a uvarint count followed by length-prefixed strings.
func (w *Writer) StringSlice(vs []string) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.String(v)
	}
}

// Reader decodes a message produced by Writer. It is poisoned by the first
// error: subsequent reads return zero values and Err reports the cause.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over p. The reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// fail poisons the reader with err (keeping the first error).
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrShort)
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// Uint8 reads a single byte.
func (r *Reader) Uint8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a boolean encoded as one byte.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Uint16 reads a fixed-width little-endian uint16.
func (r *Reader) Uint16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

// Uint32 reads a fixed-width little-endian uint32.
func (r *Reader) Uint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// Uint64 reads a fixed-width little-endian uint64.
func (r *Reader) Uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Uvarint reads a variable-width unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n == 0 {
		r.fail(ErrShort)
		return 0
	}
	if n < 0 {
		r.fail(ErrOverflow)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail(ErrPadded)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a variable-width signed integer (zig-zag).
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n == 0 {
		r.fail(ErrShort)
		return 0
	}
	if n < 0 {
		r.fail(ErrOverflow)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail(ErrPadded)
		return 0
	}
	r.off += n
	return v
}

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(r.Uint64())
}

// length reads and validates a uvarint length prefix.
func (r *Reader) length() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	l, err := CheckLength(n, r.Remaining())
	if err != nil {
		r.fail(err)
	}
	return l
}

// CheckLength bounds a decoded length prefix n by MaxElemLen and by the
// remaining bytes that must hold it: the rule Reader applies to every
// length-prefixed field, for decoders that read a body off a connection
// instead of from memory.
func CheckLength(n uint64, remaining int) (int, error) {
	if n > MaxElemLen {
		return 0, fmt.Errorf("%w: %d", ErrTooLarge, n)
	}
	if n > uint64(max(remaining, 0)) {
		return 0, ErrShort
	}
	return int(n), nil
}

// CheckCount bounds a decoded element count n for a list whose every
// entry encodes in at least minEntryBytes of the remaining bytes: the
// rule behind Reader.Count, exported like CheckLength.
func CheckCount(n uint64, remaining, minEntryBytes int) (int, error) {
	if n > uint64(max(remaining, 0)/minEntryBytes) { // not n*min > remaining: that wraps
		return 0, ErrShort
	}
	return int(n), nil
}

// BytesField reads a length-prefixed byte slice. The result aliases the
// reader's backing buffer; copy it if it must outlive the buffer.
func (r *Reader) BytesField() []byte {
	n := r.length()
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

// BytesCopy reads a length-prefixed byte slice into fresh memory.
func (r *Reader) BytesCopy() []byte {
	p := r.BytesField()
	if p == nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	p := r.BytesField()
	if p == nil {
		return ""
	}
	return string(p)
}

// Raw reads exactly n bytes without a length prefix.
func (r *Reader) Raw(n int) []byte {
	if n < 0 || n > MaxElemLen {
		r.fail(ErrTooLarge)
		return nil
	}
	return r.take(n)
}

// Skip discards the next n bytes, failing the reader as reading them
// would.
func (r *Reader) Skip(n int) { r.take(n) }

// Count reads a uvarint element count for a list whose every entry
// encodes in at least minEntryBytes bytes. A count the unread bytes
// cannot hold fails the reader with ErrShort and returns 0, so a forged
// count can size neither an allocation nor a decode loop.
func (r *Reader) Count(minEntryBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	c, err := CheckCount(n, r.Remaining(), minEntryBytes)
	if err != nil {
		r.fail(err)
	}
	return c
}

// Uint64Slice reads a counted slice of fixed-width uint64 values.
func (r *Reader) Uint64Slice() []uint64 {
	n := r.Count(8)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Uint32Slice reads a counted slice of fixed-width uint32 values.
func (r *Reader) Uint32Slice() []uint32 {
	n := r.Count(4)
	if r.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.Uint32()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// StringSlice reads a counted slice of length-prefixed strings.
func (r *Reader) StringSlice() []string {
	n := r.Count(1) // each string costs at least its length byte
	if r.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	if r.err != nil {
		return nil
	}
	return out
}
