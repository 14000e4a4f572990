package vmanager

import (
	"bytes"
	"context"
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
