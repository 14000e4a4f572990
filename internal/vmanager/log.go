package vmanager

import (
	"encoding/binary"
	"errors"
	"fmt"

	"blob/internal/meta"
	"blob/internal/wire"
)

// The replicated publish log (docs/vmanager-group.md §2). Every mutation
// the group leader executes is appended to an in-memory log of LogRecords
// and replicated to the group's followers before the client call
// returns. Followers re-execute the records in sequence order against
// their own Manager, so a follower's state is a deterministic function
// of the record stream. The byte framing below is also what travels in
// MVmAppend bodies, which is why it is checksummed and torn-tail
// tolerant like the diskstore segment log: a record that does not
// decode cleanly truncates the stream at the last good record instead
// of poisoning the replica.

// Log record operation codes. The op determines which body fields are
// meaningful.
const (
	// OpCreate allocates blob Blob with geometry (PageSize, Capacity)
	// and redundancy rs(K,M).
	OpCreate = uint8(1)
	// OpAssign assigns Version to a write of [Offset, Offset+Length) by
	// WriteID on Blob. The offset is already append-resolved by the
	// leader, so replay is deterministic.
	OpAssign = uint8(2)
	// OpCommit marks (Blob, Version) committed.
	OpCommit = uint8(3)
	// OpAbort marks (Blob, Version) aborted (writer withdrew; repair to
	// follow).
	OpAbort = uint8(4)
	// OpRepaired marks (Blob, Version) repaired: aborted in history and
	// committed so publication advances past it.
	OpRepaired = uint8(5)
)

// LogRecord is one replicated mutation. Seq is the group-wide log
// sequence number, contiguous from 1.
type LogRecord struct {
	Seq  uint64
	Op   uint8
	Blob uint64

	// OpAssign/OpCommit/OpAbort/OpRepaired.
	Version meta.Version

	// OpCreate.
	PageSize uint64
	Capacity uint64
	K, M     uint8

	// OpAssign.
	WriteID uint64
	Offset  uint64
	Length  uint64
}

// Decode errors. Torn means the buffer ends mid-record (a clean prefix
// may still be recovered); corrupt means the bytes present are wrong.
var (
	ErrLogTorn    = errors.New("vmanager: log record torn")
	ErrLogCorrupt = errors.New("vmanager: log record corrupt")
)

// maxLogPayload bounds a single record's payload. Real records are tens
// of bytes; the cap keeps a corrupt length field from looking like a
// multi-gigabyte torn tail.
const maxLogPayload = 1 << 20

// AppendLogRecord appends rec's framed encoding to dst and returns the
// extended slice. Frame: u32 payload length, u64 checksum of the
// payload (wire.Checksum64: CRC-32C, zero-extended), payload.
func AppendLogRecord(dst []byte, rec LogRecord) []byte {
	w := wire.NewWriter(64)
	w.Uint64(rec.Seq)
	w.Uint8(rec.Op)
	w.Uint64(rec.Blob)
	switch rec.Op {
	case OpCreate:
		w.Uint64(rec.PageSize)
		w.Uint64(rec.Capacity)
		w.Uint8(rec.K)
		w.Uint8(rec.M)
	case OpAssign:
		w.Uint64(rec.Version)
		w.Uint64(rec.WriteID)
		w.Uint64(rec.Offset)
		w.Uint64(rec.Length)
	default:
		w.Uint64(rec.Version)
	}
	payload := w.Bytes()
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:12], wire.Checksum64(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeLogRecord decodes one framed record from the front of buf,
// returning the record and the number of bytes consumed. ErrLogTorn
// means buf ends before the record does; ErrLogCorrupt means the bytes
// present fail the checksum or do not parse.
func DecodeLogRecord(buf []byte) (LogRecord, int, error) {
	if len(buf) < 12 {
		return LogRecord{}, 0, ErrLogTorn
	}
	plen := int(binary.LittleEndian.Uint32(buf[0:4]))
	if plen > maxLogPayload {
		return LogRecord{}, 0, fmt.Errorf("%w: payload length %d", ErrLogCorrupt, plen)
	}
	if len(buf) < 12+plen {
		return LogRecord{}, 0, ErrLogTorn
	}
	sum := binary.LittleEndian.Uint64(buf[4:12])
	payload := buf[12 : 12+plen]
	if wire.Checksum64(payload) != sum {
		return LogRecord{}, 0, fmt.Errorf("%w: checksum mismatch", ErrLogCorrupt)
	}
	r := wire.NewReader(payload)
	var rec LogRecord
	rec.Seq = r.Uint64()
	rec.Op = r.Uint8()
	rec.Blob = r.Uint64()
	switch rec.Op {
	case OpCreate:
		rec.PageSize = r.Uint64()
		rec.Capacity = r.Uint64()
		rec.K = r.Uint8()
		rec.M = r.Uint8()
	case OpAssign:
		rec.Version = r.Uint64()
		rec.WriteID = r.Uint64()
		rec.Offset = r.Uint64()
		rec.Length = r.Uint64()
	case OpCommit, OpAbort, OpRepaired:
		rec.Version = r.Uint64()
	default:
		return LogRecord{}, 0, fmt.Errorf("%w: unknown op %d", ErrLogCorrupt, rec.Op)
	}
	if err := r.Err(); err != nil {
		return LogRecord{}, 0, fmt.Errorf("%w: %v", ErrLogCorrupt, err)
	}
	if r.Remaining() != 0 {
		return LogRecord{}, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrLogCorrupt, r.Remaining())
	}
	return rec, 12 + plen, nil
}

// RecoverLog decodes records from buf until it hits a torn or corrupt
// frame, returning the clean prefix of records and its byte length —
// truncate-and-recover semantics, never a panic. Sequence numbers must
// be contiguous; a gap also truncates.
func RecoverLog(buf []byte) ([]LogRecord, int) {
	var recs []LogRecord
	n := 0
	for n < len(buf) {
		rec, sz, err := DecodeLogRecord(buf[n:])
		if err != nil {
			break
		}
		if len(recs) > 0 && rec.Seq != recs[len(recs)-1].Seq+1 {
			break
		}
		recs = append(recs, rec)
		n += sz
	}
	return recs, n
}

// EncodeLogRecords frames a batch of records for an MVmAppend body.
func EncodeLogRecords(recs []LogRecord) []byte {
	var out []byte
	for _, rec := range recs {
		out = AppendLogRecord(out, rec)
	}
	return out
}

// DecodeLogRecords decodes a full batch; unlike RecoverLog it fails on
// any torn or corrupt frame, because an RPC body is never legitimately
// truncated.
func DecodeLogRecords(buf []byte) ([]LogRecord, error) {
	var recs []LogRecord
	n := 0
	for n < len(buf) {
		rec, sz, err := DecodeLogRecord(buf[n:])
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		n += sz
	}
	return recs, nil
}
