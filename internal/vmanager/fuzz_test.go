package vmanager

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"blob/internal/meta"
	"blob/internal/wire"
)

// FuzzLogRecordDecode asserts the publish-log record decoder never
// panics, never accepts a frame that does not round-trip byte-for-byte,
// and that RecoverLog's truncate-and-recover semantics hold on arbitrary
// damage: the recovered prefix re-decodes cleanly and its length never
// exceeds the input. The same bytes then drive ApplyRecord (see
// applyFuzzRecords).
func FuzzLogRecordDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(EncodeLogRecords(sampleRecords()))
	whole := EncodeLogRecords(sampleRecords())
	f.Add(whole[:len(whole)-3]) // torn tail
	flipped := bytes.Clone(whole)
	flipped[17] ^= 0x20
	f.Add(flipped) // checksum-breaking bit flip
	bigLen := bytes.Clone(whole)
	bigLen[3] = 0xff
	f.Add(bigLen) // absurd length field
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeLogRecord(data)
		if err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("decoded size %d of %d input bytes", n, len(data))
			}
			// The checksummed frame leaves no slack: re-encoding must
			// reproduce the consumed bytes exactly.
			if re := AppendLogRecord(nil, rec); !bytes.Equal(re, data[:n]) {
				t.Fatalf("record does not round-trip:\n got %x\nwant %x", re, data[:n])
			}
		}

		recs, rn := RecoverLog(data)
		if rn < 0 || rn > len(data) {
			t.Fatalf("recovered %d bytes of %d", rn, len(data))
		}
		// The clean prefix is self-consistent: re-encoding it yields the
		// recovered byte range, and sequence numbers are contiguous.
		var re []byte
		for i, rec := range recs {
			if i > 0 && rec.Seq != recs[i-1].Seq+1 {
				t.Fatalf("recovered gap: seq %d after %d", rec.Seq, recs[i-1].Seq)
			}
			re = AppendLogRecord(re, rec)
		}
		if !bytes.Equal(re, data[:rn]) {
			t.Fatalf("recovered prefix does not round-trip")
		}

		// The strict batch decoder agrees with full-clean recovery.
		if brecs, err := DecodeLogRecords(data); err == nil {
			if len(data) != rn && len(brecs) != len(recs) {
				t.Fatalf("batch decoded %d records where recovery got %d of %d bytes", len(brecs), len(recs), rn)
			}
		}

		applyFuzzRecords(t, data)
	})
}

// applyFuzzRecords reads records straight from fuzz bytes — through the
// checksummed framing almost none would get past the decoder — and
// applies them in order to a fresh Manager. Whatever they say, applying
// must not panic, every blob's history must stay gap-free from v1, and
// the state must checkpoint into a stream Restore accepts.
func applyFuzzRecords(t *testing.T, data []byte) {
	m := New(Config{})
	defer m.Close()
	rd := wire.NewReader(data)
	for rd.Remaining() >= 6 {
		op, blob, arg, x, y, z := rd.Uint8(), rd.Uint8(), rd.Uint8(), rd.Uint8(), rd.Uint8(), rd.Uint8()
		rec := LogRecord{Op: op % 6, Blob: uint64(blob % 4), Version: uint64(arg % 16)}
		switch rec.Op {
		case OpCreate: // page sizes 512..4096, up to 1024 pages, rs(K,M) or replication
			rec.PageSize = 512 << (x % 4)
			rec.Capacity = rec.PageSize << (y % 11)
			rec.K, rec.M = z%4, z/4%3
		case OpAssign: // offsets and lengths in 4 KiB units
			rec.WriteID = uint64(x)
			rec.Offset = uint64(y) * 4096
			rec.Length = uint64(z) * 4096
		}
		m.ApplyRecord(rec)
	}
	for _, id := range m.Blobs() {
		h, err := m.History(id, 0, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range h {
			if rec.Version != meta.Version(i+1) {
				t.Fatalf("blob %d: history[%d] is v%d", id, i, rec.Version)
			}
		}
	}
	r, err := Restore(m.Checkpoint(), Config{})
	if err != nil {
		t.Fatalf("applied state does not restore: %v", err)
	}
	r.Close()
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint restorer:
// whatever the input, Restore must reject or accept without panicking,
// and an accepted state must survive a checkpoint/restore round trip
// (i.e. Restore only admits states the Manager itself could have
// written).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	// A real checkpoint with history, a pending write and an abort.
	m := newLone(f, Config{})
	ctx := context.Background()
	blob := newBlob(f, m)
	a1, _ := m.AssignVersion(ctx, blob, 11, 0, 2*pageSize, false)
	m.Commit(ctx, blob, a1.Version, false)
	a2, _ := m.AssignVersion(ctx, blob, 22, 0, pageSize, true)
	m.Abort(ctx, blob, a2.Version)
	whole := m.Manager().Checkpoint()
	f.Add(bytes.Clone(whole))
	f.Add(bytes.Clone(whole[:len(whole)-4])) // torn
	for _, off := range []int{8, 16, 24, len(whole) / 2, len(whole) - 2} {
		if off < len(whole) {
			flipped := bytes.Clone(whole)
			flipped[off] ^= 0x01
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Restore(data, Config{})
		if err != nil {
			return // rejected: fine
		}
		defer r.Close()
		// Accepted state must be internally consistent enough to
		// checkpoint again and restore to the same blob set.
		r2, err := Restore(r.Checkpoint(), Config{})
		if err != nil {
			t.Fatalf("re-checkpointed state rejected: %v", err)
		}
		defer r2.Close()
		b1, b2 := r.Blobs(), r2.Blobs()
		if len(b1) != len(b2) {
			t.Fatalf("round trip changed blob count: %d != %d", len(b1), len(b2))
		}
		// Exercise the read paths — they must not panic on any accepted
		// state, and Latest/History must agree across the round trip.
		for _, id := range b1 {
			v1, s1, e1 := r.Latest(id)
			v2, s2, e2 := r2.Latest(id)
			if v1 != v2 || s1 != s2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("blob %d: latest diverged (%d,%d,%v) != (%d,%d,%v)", id, v1, s1, e1, v2, s2, e2)
			}
			h1, _ := r.History(id, 0, ^uint64(0))
			h2, _ := r2.History(id, 0, ^uint64(0))
			if len(h1) != len(h2) {
				t.Fatalf("blob %d: history diverged", id)
			}
		}
	})
}

// TestCommittedLogSeedsPassChecksumGate keeps the committed
// FuzzLogRecordDecode corpus honest: its interesting seeds embed frame
// checksums, so a change of checksum function silently turns them into
// "checksum mismatch" inputs that exercise nothing behind the gate. At
// least one must still open with a record the decoder accepts.
// (FuzzCheckpointDecode's format carries no checksum.)
func TestCommittedLogSeedsPassChecksumGate(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzLogRecordDecode", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed seeds (%v)", err)
	}
	accepted := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if !ok {
			t.Fatalf("%s: not a []byte seed", f)
		}
		str, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, _, err := DecodeLogRecord([]byte(str)); err == nil {
			accepted++
		}
	}
	if accepted == 0 {
		t.Error("no committed seed decodes past the checksum gate; regenerate the corpus")
	}
}

// replicationReq encodes an append or install request.
func replicationReq(term uint64, leader uint8, seq uint64, rest []byte) []byte {
	w := wire.NewWriter(17 + len(rest))
	w.Uint64(term)
	w.Uint8(leader)
	w.Uint64(seq)
	w.Raw(rest)
	return w.Bytes()
}

// FuzzVManagerWire feeds arbitrary bodies to the version manager's
// network decoders that the log and checkpoint fuzzers leave out: the
// MAssign, MHistory and MVmStatus replies (which = 0, 1, 2), the
// append/install reply and the MInfo reply (3, 4), and the append and
// install requests, through their header decoder (5) and through a lone
// replica's handlers (6, 7). No body panics or sizes an allocation from
// a count its bytes cannot hold (2^40 and 2^63 counts are seeds), what
// decodes re-encodes to the bytes it came from, and no request naming a
// leader outside the group is accepted (leader 255 is a seed).
func FuzzVManagerWire(f *testing.F) {
	ctx := context.Background()
	r := newLone(f, Config{})
	blob := newBlob(f, r)
	a, err := r.AssignVersion(ctx, blob, 7, 0, 2*pageSize, false)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := r.Commit(ctx, blob, a.Version, false); err != nil {
		f.Fatal(err)
	}
	assign, _ := r.handleAssign(ctx, newAssignReq(blob, 8, pageSize, pageSize, false))
	history, _ := r.readHandler((*Manager).handleHistory)(ctx, newHistoryReq(blob, 0, 9))
	status, _ := r.handleVmStatus(ctx, nil)
	info, _ := r.readHandler((*Manager).handleInfo)(ctx, encodeUint64(blob))
	records := EncodeLogRecords(sampleRecords())
	ckpt := r.Manager().Checkpoint()
	f.Add(uint8(0), assign)
	f.Add(uint8(1), history)
	f.Add(uint8(2), status)
	f.Add(uint8(3), encodeAppendResp(3, 0, 9, respResync))
	f.Add(uint8(3), encodeAppendResp(3, 255, 9, respRejected))
	f.Add(uint8(4), info)
	for _, leader := range []uint8{0, 255} {
		f.Add(uint8(5), replicationReq(2, leader, 0, records))
		f.Add(uint8(6), replicationReq(2, leader, 0, records))
		f.Add(uint8(7), replicationReq(2, leader, 5, ckpt))
	}
	for _, n := range []uint64{1 << 40, 1 << 63} {
		f.Add(uint8(0), binary.AppendUvarint(make([]byte, 16), n))
		f.Add(uint8(1), binary.AppendUvarint(nil, n))
	}
	const peers = 3
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		switch which % 8 {
		case 0:
			if a, err := DecodeAssignment(body); err == nil && 3*cap(a.Borders) > len(body) {
				t.Fatalf("%d borders sized from %d bytes", cap(a.Borders), len(body))
			}
		case 1:
			if h, err := DecodeHistory(body); err == nil && historyRecordBytes*cap(h) > len(body) {
				t.Fatalf("%d records sized from %d bytes", cap(h), len(body))
			}
		case 2:
			DecodeReplicaStatus(body)
		case 3:
			resp, err := decodeAppendResp(body)
			if err != nil {
				return
			}
			if re := encodeAppendResp(resp.term, resp.leader, resp.logLen, resp.flags); !bytes.Equal(re, body[:len(re)]) {
				t.Fatalf("reply does not round-trip:\n got %x\nwant %x", re, body[:len(re)])
			}
		case 4:
			decodeBlobInfo(body)
		case 5:
			term, leader, seq, rest, err := decodeReplicationReq(body, peers)
			if err != nil {
				return
			}
			if leader >= peers {
				t.Fatalf("request naming leader %d of %d accepted", leader, peers)
			}
			if re := replicationReq(term, uint8(leader), seq, rest); !bytes.Equal(re, body) {
				t.Fatalf("request does not round-trip:\n got %x\nwant %x", re, body)
			}
		default:
			lone := newLone(t, Config{})
			handle := lone.handleVmAppend
			if which%8 == 7 {
				handle = lone.handleVmInstall
			}
			handle(ctx, body)
			if st := lone.Status(); st.Leader != 0 {
				t.Fatalf("a lone replica follows leader %d", st.Leader)
			}
		}
	})
}
