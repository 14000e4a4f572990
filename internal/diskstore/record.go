// Record encoding for segment files.
//
// A segment is a flat sequence of length-prefixed, checksummed records:
//
//	u32  bodyLen   (little endian)
//	u64  checksum  (CRC-32C of body, zero-extended; wire.Checksum64)
//	body
//
// The body starts with a one-byte opcode and the record's store-wide
// sequence number, followed by the write identity:
//
//	opPut:        op | u64 seq | u64 blob | u64 write | u32 rel | page bytes
//	opDelPages:   op | u64 seq | u64 blob | u64 write | u32 n | n × u32 rel
//	opDelWrite:   op | u64 seq | u64 blob | u64 write
//
// The sequence number totally orders records across segments: recovery
// resolves each page by comparing sequence numbers, not file positions,
// so compaction may freely relocate records (a rewritten tombstone or
// put keeps its original seq) without replay-order hazards.
//
// Records are immutable once written; the only in-place file mutation the
// store ever performs is truncating a torn tail during recovery. Any
// record whose length prefix overruns the file, whose checksum does not
// match, or whose body fails structural validation marks the end of the
// usable prefix of its segment — everything from its offset on is
// discarded, never served.
//
// (This file comment is deliberately detached from the package clause —
// the package's doc comment lives in diskstore.go.)

package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"blob/internal/wire"
)

const (
	opPut      = 1
	opDelPages = 2
	opDelWrite = 3

	recHeaderSize = 12                // u32 len + u64 checksum
	putBodyPrefix = 1 + 8 + 8 + 8 + 4 // op, seq, blob, write, rel
	delPrefix     = 1 + 8 + 8 + 8     // op, seq, blob, write

	// maxBodyLen bounds a single record body. It must comfortably exceed
	// any realistic page size while rejecting corrupt length prefixes
	// before they trigger huge allocations.
	maxBodyLen = 1 << 28

	// MaxPageSize is the largest page payload one record can carry;
	// PutPages rejects bigger pages up front, since a record that cannot
	// be decoded again would read as a torn tail on recovery.
	MaxPageSize = maxBodyLen - putBodyPrefix
)

// ErrCorrupt marks a structurally invalid or checksum-failing record.
var ErrCorrupt = errors.New("diskstore: corrupt record")

// record is a decoded segment record.
type record struct {
	op    byte
	seq   uint64
	blob  uint64
	write uint64
	rel   uint32   // opPut only
	data  []byte   // opPut only; aliases the scan buffer
	rels  []uint32 // opDelPages only
}

// recMeta is the append-side identity of a record: what the writer knew
// before encoding it. It travels alongside the encoded bytes so the
// sidecar accumulator never has to decode its own output.
type recMeta struct {
	op    byte
	seq   uint64
	blob  uint64
	write uint64
	rel   uint32   // opPut only
	rels  []uint32 // opDelPages only
}

func (rec record) meta() recMeta {
	return recMeta{op: rec.op, seq: rec.seq, blob: rec.blob, write: rec.write, rel: rec.rel, rels: rec.rels}
}

// appendPutRecord appends an encoded opPut record for one page to dst.
func appendPutRecord(dst []byte, seq, blob, write uint64, rel uint32, data []byte) []byte {
	bodyLen := putBodyPrefix + len(data)
	dst = appendRecordHeaderSpace(dst, bodyLen)
	body := dst[len(dst)-bodyLen:]
	body[0] = opPut
	binary.LittleEndian.PutUint64(body[1:], seq)
	binary.LittleEndian.PutUint64(body[9:], blob)
	binary.LittleEndian.PutUint64(body[17:], write)
	binary.LittleEndian.PutUint32(body[25:], rel)
	copy(body[putBodyPrefix:], data)
	fillChecksum(dst, bodyLen)
	return dst
}

// appendDelPagesRecord appends an encoded opDelPages tombstone to dst.
func appendDelPagesRecord(dst []byte, seq, blob, write uint64, rels []uint32) []byte {
	bodyLen := delPrefix + 4 + 4*len(rels)
	dst = appendRecordHeaderSpace(dst, bodyLen)
	body := dst[len(dst)-bodyLen:]
	body[0] = opDelPages
	binary.LittleEndian.PutUint64(body[1:], seq)
	binary.LittleEndian.PutUint64(body[9:], blob)
	binary.LittleEndian.PutUint64(body[17:], write)
	binary.LittleEndian.PutUint32(body[25:], uint32(len(rels)))
	for i, r := range rels {
		binary.LittleEndian.PutUint32(body[delPrefix+4+4*i:], r)
	}
	fillChecksum(dst, bodyLen)
	return dst
}

// appendDelWriteRecord appends an encoded opDelWrite tombstone to dst.
func appendDelWriteRecord(dst []byte, seq, blob, write uint64) []byte {
	dst = appendRecordHeaderSpace(dst, delPrefix)
	body := dst[len(dst)-delPrefix:]
	body[0] = opDelWrite
	binary.LittleEndian.PutUint64(body[1:], seq)
	binary.LittleEndian.PutUint64(body[9:], blob)
	binary.LittleEndian.PutUint64(body[17:], write)
	fillChecksum(dst, delPrefix)
	return dst
}

// appendRecordHeaderSpace grows dst by one record of bodyLen and writes
// the length prefix; the caller fills every body byte, then calls
// fillChecksum for the checksum slot (the new bytes are not zeroed).
func appendRecordHeaderSpace(dst []byte, bodyLen int) []byte {
	off := len(dst)
	dst = slices.Grow(dst, recHeaderSize+bodyLen)[:off+recHeaderSize+bodyLen]
	binary.LittleEndian.PutUint32(dst[off:], uint32(bodyLen))
	return dst
}

// fillChecksum computes the checksum over the trailing bodyLen bytes of a
// just-appended record and stores it in the record's checksum slot.
func fillChecksum(dst []byte, bodyLen int) {
	body := dst[len(dst)-bodyLen:]
	binary.LittleEndian.PutUint64(dst[len(dst)-bodyLen-8:], wire.Checksum64(body))
}

// decodeRecord parses the record starting at buf. It returns the decoded
// record and the total encoded size. A short buffer, checksum mismatch or
// malformed body returns ErrCorrupt: callers treat the record's offset as
// the end of the segment's usable prefix.
func decodeRecord(buf []byte) (record, int, error) {
	var rec record
	if len(buf) < recHeaderSize {
		return rec, 0, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(buf))
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf))
	if bodyLen <= 0 || bodyLen > maxBodyLen {
		return rec, 0, fmt.Errorf("%w: body length %d", ErrCorrupt, bodyLen)
	}
	if len(buf) < recHeaderSize+bodyLen {
		return rec, 0, fmt.Errorf("%w: truncated body (%d of %d bytes)",
			ErrCorrupt, len(buf)-recHeaderSize, bodyLen)
	}
	sum := binary.LittleEndian.Uint64(buf[4:])
	body := buf[recHeaderSize : recHeaderSize+bodyLen]
	if wire.Checksum64(body) != sum {
		return rec, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	rec.op = body[0]
	switch rec.op {
	case opPut:
		if bodyLen < putBodyPrefix {
			return rec, 0, fmt.Errorf("%w: put body %d bytes", ErrCorrupt, bodyLen)
		}
		rec.seq = binary.LittleEndian.Uint64(body[1:])
		rec.blob = binary.LittleEndian.Uint64(body[9:])
		rec.write = binary.LittleEndian.Uint64(body[17:])
		rec.rel = binary.LittleEndian.Uint32(body[25:])
		rec.data = body[putBodyPrefix:]
	case opDelPages:
		if bodyLen < delPrefix+4 {
			return rec, 0, fmt.Errorf("%w: del-pages body %d bytes", ErrCorrupt, bodyLen)
		}
		rec.seq = binary.LittleEndian.Uint64(body[1:])
		rec.blob = binary.LittleEndian.Uint64(body[9:])
		rec.write = binary.LittleEndian.Uint64(body[17:])
		n := int(binary.LittleEndian.Uint32(body[25:]))
		if n < 0 || delPrefix+4+4*n != bodyLen {
			return rec, 0, fmt.Errorf("%w: del-pages count %d for body %d", ErrCorrupt, n, bodyLen)
		}
		rec.rels = make([]uint32, n)
		for i := range rec.rels {
			rec.rels[i] = binary.LittleEndian.Uint32(body[delPrefix+4+4*i:])
		}
	case opDelWrite:
		if bodyLen != delPrefix {
			return rec, 0, fmt.Errorf("%w: del-write body %d bytes", ErrCorrupt, bodyLen)
		}
		rec.seq = binary.LittleEndian.Uint64(body[1:])
		rec.blob = binary.LittleEndian.Uint64(body[9:])
		rec.write = binary.LittleEndian.Uint64(body[17:])
	default:
		return rec, 0, fmt.Errorf("%w: opcode %d", ErrCorrupt, rec.op)
	}
	return rec, recHeaderSize + bodyLen, nil
}
