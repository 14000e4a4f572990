package vmanager

import (
	"context"
	"errors"
	"slices"
	"testing"
)

func sampleRecords() []LogRecord {
	return []LogRecord{
		{Seq: 1, Op: OpCreate, Blob: 7, PageSize: 4096, Capacity: 1 << 20, K: 2, M: 1},
		{Seq: 2, Op: OpAssign, Blob: 7, Version: 1, WriteID: 42, Offset: 8192, Length: 4096},
		{Seq: 3, Op: OpCommit, Blob: 7, Version: 1},
		{Seq: 4, Op: OpAbort, Blob: 7, Version: 2},
		{Seq: 5, Op: OpRepaired, Blob: 7, Version: 2},
	}
}

func TestLogRecordRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		buf := AppendLogRecord(nil, want)
		got, n, err := DecodeLogRecord(buf)
		if err != nil {
			t.Fatalf("op %d: %v", want.Op, err)
		}
		if n != len(buf) {
			t.Errorf("op %d: consumed %d of %d bytes", want.Op, n, len(buf))
		}
		if got != want {
			t.Errorf("op %d: round trip %+v != %+v", want.Op, got, want)
		}
	}
}

func TestLogBatchRoundTrip(t *testing.T) {
	want := sampleRecords()
	buf := EncodeLogRecords(want)
	got, err := DecodeLogRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestDecodeTornAndCorrupt(t *testing.T) {
	buf := AppendLogRecord(nil, sampleRecords()[1])

	// Every strict prefix is torn, not corrupt (the checksummed frame
	// only reports corruption when all its bytes are present and wrong).
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeLogRecord(buf[:cut]); !errors.Is(err, ErrLogTorn) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrLogTorn", cut, len(buf), err)
		}
	}

	// Any single bit flip in the payload is corrupt.
	for bit := 12 * 8; bit < len(buf)*8; bit += 7 {
		mut := append([]byte(nil), buf...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, _, err := DecodeLogRecord(mut); !errors.Is(err, ErrLogCorrupt) {
			t.Fatalf("bit %d flipped: err = %v, want ErrLogCorrupt", bit, err)
		}
	}

	// A corrupt length field must not be treated as a huge torn tail.
	mut := append([]byte(nil), buf...)
	mut[3] = 0xff // length |= 0xff000000
	if _, _, err := DecodeLogRecord(mut); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("corrupt length: err = %v, want ErrLogCorrupt", err)
	}

	// Unknown op: rewrite the op byte and fix the checksum so only the
	// op validation can object.
	rec := sampleRecords()[2]
	rec.Op = 99
	if _, _, err := DecodeLogRecord(AppendLogRecord(nil, rec)); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("unknown op: err = %v, want ErrLogCorrupt", err)
	}
}

func TestRecoverLogTruncatesAtDamage(t *testing.T) {
	recs := sampleRecords()
	buf := EncodeLogRecords(recs)

	// Clean stream recovers fully.
	got, n := RecoverLog(buf)
	if len(got) != len(recs) || n != len(buf) {
		t.Fatalf("clean recover = %d records, %d bytes; want %d, %d", len(got), n, len(recs), len(buf))
	}

	// Torn tail: drop the last 5 bytes; recovery keeps the prefix.
	got, n = RecoverLog(buf[: len(buf)-5 : len(buf)-5])
	if len(got) != len(recs)-1 {
		t.Fatalf("torn recover = %d records, want %d", len(got), len(recs)-1)
	}
	if want := len(buf) - frameLen(recs[len(recs)-1]); n != want {
		t.Fatalf("torn recover consumed %d bytes, want %d", n, want)
	}

	// Bit flip in record 3's payload: records 1-2 survive.
	mut := append([]byte(nil), buf...)
	off := frameLen(recs[0]) + frameLen(recs[1]) + 13
	mut[off] ^= 0x40
	if got, _ = RecoverLog(mut); len(got) != 2 {
		t.Fatalf("corrupt recover = %d records, want 2", len(got))
	}

	// A sequence gap truncates even when frames are intact.
	gap := append([]LogRecord(nil), recs...)
	gap[3].Seq = 9
	if got, _ = RecoverLog(EncodeLogRecords(gap)); len(got) != 3 {
		t.Fatalf("gap recover = %d records, want 3", len(got))
	}

	// The batch decoder refuses damage outright.
	if _, err := DecodeLogRecords(mut); err == nil {
		t.Error("DecodeLogRecords accepted a corrupt batch")
	}
	if _, err := DecodeLogRecords(buf[:len(buf)-5]); err == nil {
		t.Error("DecodeLogRecords accepted a torn batch")
	}
}

func frameLen(rec LogRecord) int { return len(AppendLogRecord(nil, rec)) }

func TestManagerApplyRecordReplay(t *testing.T) {
	// A follower's state is a deterministic function of the record
	// stream: replaying a leader's log into a fresh Manager must
	// reproduce its published state.
	r := newLone(t, Config{})
	ctx := context.Background()
	blob := newBlob(t, r)
	for i := 0; i < 4; i++ {
		a, err := r.AssignVersion(ctx, blob, uint64(100+i), uint64(i)*pageSize, pageSize, false)
		if err != nil {
			t.Fatal(err)
		}
		if i != 2 { // leave v3 pending
			if _, err := r.Commit(ctx, blob, a.Version, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	leader, log := r.Manager(), recordedLog(r)
	if len(log) != 1+4+3 {
		t.Fatalf("leader logged %d records, want create + 4 assigns + 3 commits", len(log))
	}

	follower := New(Config{})
	defer follower.Close()
	for _, rec := range log {
		if err := follower.ApplyRecord(rec); err != nil {
			t.Fatalf("apply %+v: %v", rec, err)
		}
	}

	lv, lsize, lerr := leader.Latest(blob)
	fv, fsize, ferr := follower.Latest(blob)
	if lerr != nil || ferr != nil || lv != fv || lsize != fsize {
		t.Fatalf("replay diverged: leader (%d, %d, %v), follower (%d, %d, %v)", lv, lsize, lerr, fv, fsize, ferr)
	}
	lh, _ := leader.History(blob, 0, 100)
	fh, _ := follower.History(blob, 0, 100)
	if len(lh) != len(fh) {
		t.Fatalf("history length diverged: %d != %d", len(lh), len(fh))
	}
	for i := range lh {
		if lh[i] != fh[i] {
			t.Errorf("history[%d] diverged: %+v != %+v", i, lh[i], fh[i])
		}
	}

	// Replay is idempotent at the record level too (duplicate delivery).
	for _, rec := range log {
		if rec.Op == OpCommit {
			if err := follower.ApplyRecord(rec); err != nil {
				t.Fatalf("re-apply %+v: %v", rec, err)
			}
		}
	}
}

// recordedLog copies a replica's retained publish log.
func recordedLog(r *Replica) []LogRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.log)
}

func TestApplyRecordDivergenceDetected(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	if err := m.ApplyRecord(LogRecord{Seq: 1, Op: OpCreate, Blob: 1, PageSize: pageSize, Capacity: capBytes}); err != nil {
		t.Fatal(err)
	}
	// An assign whose version does not match the manager's own serial
	// assignment is divergence, not data.
	err := m.ApplyRecord(LogRecord{Seq: 2, Op: OpAssign, Blob: 1, Version: 5, WriteID: 9, Offset: 0, Length: pageSize})
	if err == nil {
		t.Fatal("mismatched assign version applied silently")
	}
	// Bad geometry in a create must error, not panic.
	if err := m.ApplyRecord(LogRecord{Seq: 2, Op: OpCreate, Blob: 2, PageSize: 1000, Capacity: 4000}); err == nil {
		t.Fatal("invalid geometry applied")
	}
}

func BenchmarkAppendLogRecord(b *testing.B) {
	rec := LogRecord{Seq: 1, Op: OpAssign, Blob: 7, Version: 1, WriteID: 42, Offset: 8192, Length: 4096}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendLogRecord(buf[:0], rec)
	}
}
