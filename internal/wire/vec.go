package wire

// VecWriter assembles a scatter-gather message body for the rpc layer's
// calls (rpc.Client.Go / rpc.SegHandlerFunc): header fields
// accumulate in one arena, payload segments alias the caller's buffers
// untouched, and consecutive header runs share a single segment. It is
// the one audited home of the arena-aliasing subtlety: a sealed segment
// is carved with a full slice expression (arena[start:len:len]), so
// later appends that grow the arena into fresh memory leave already
// sealed segments pointing at their original, final bytes.
//
// The zero value is usable; NewVec pre-sizes the arena and segment
// list. VecWriter is returned by value so the usual pattern (build,
// hand Segs to Go) costs exactly two allocations.

import "encoding/binary"

// VecWriter builds one scatter-gather body. Not safe for concurrent
// use.
type VecWriter struct {
	arena []byte
	segs  [][]byte
	start int
}

// NewVec returns a writer with capacity for arenaCap header bytes and
// segsCap segments.
func NewVec(arenaCap, segsCap int) VecWriter {
	return VecWriter{arena: make([]byte, 0, arenaCap), segs: make([][]byte, 0, segsCap)}
}

// Uint8 appends a header byte.
func (v *VecWriter) Uint8(x uint8) { v.arena = append(v.arena, x) }

// Uint32 appends a fixed-width little-endian header field.
func (v *VecWriter) Uint32(x uint32) {
	v.arena = binary.LittleEndian.AppendUint32(v.arena, x)
}

// Uint64 appends a fixed-width little-endian header field.
func (v *VecWriter) Uint64(x uint64) {
	v.arena = binary.LittleEndian.AppendUint64(v.arena, x)
}

// Uvarint appends a variable-width header field.
func (v *VecWriter) Uvarint(x uint64) {
	v.arena = binary.AppendUvarint(v.arena, x)
}

// seal closes the current header run into a segment.
func (v *VecWriter) seal() {
	if len(v.arena) > v.start {
		v.segs = append(v.segs, v.arena[v.start:len(v.arena):len(v.arena)])
		v.start = len(v.arena)
	}
}

// Alias appends p as a payload segment without copying. p must stay
// immutable until the message has been flushed (for rpc calls: until
// Pending.Wait returns; for handler responses: until the handler's
// response is on the wire, which the rpc server guarantees before
// completing the client's call).
func (v *VecWriter) Alias(p []byte) {
	v.seal()
	v.segs = append(v.segs, p)
}

// ReserveSeg appends a placeholder segment and returns its index, for
// fields whose value is only known once the message is complete (batch
// counts). Fill it with SetSeg before handing Segs to the rpc layer.
func (v *VecWriter) ReserveSeg() int {
	v.seal()
	v.segs = append(v.segs, nil)
	return len(v.segs) - 1
}

// SetSeg fills a segment reserved with ReserveSeg.
func (v *VecWriter) SetSeg(i int, p []byte) { v.segs[i] = p }

// Segs seals any trailing header run and returns the segment list.
func (v *VecWriter) Segs() [][]byte {
	v.seal()
	return v.segs
}
