package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blob/internal/trace"
	"blob/internal/wire"
)

// fillSealed writes enough pages (with some cross-segment deletes) to
// leave the store with several sealed segments, and returns the expected
// page map.
func fillSealed(t *testing.T, s *Store) map[string][]byte {
	t.Helper()
	for w := uint64(1); w <= 6; w++ {
		for rel := uint32(0); rel < 6; rel++ {
			mustPut(t, s, 7, w, rel, bytes.Repeat([]byte{byte(w), byte(rel)}, 30))
		}
	}
	// Tombstones land in later segments than the puts they kill, so the
	// sidecar replay-state merge across segments is exercised.
	if _, err := s.DeleteWrite(7, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeletePages(7, 3, []uint32{1, 4}); err != nil {
		t.Fatal(err)
	}
	return pageMap(s)
}

// pageMap snapshots every live page.
func pageMap(s *Store) map[string][]byte {
	m := map[string][]byte{}
	s.ForEachPage(func(blob, write uint64, rel uint32, data []byte) {
		m[fmt.Sprintf("%d/%d/%d", blob, write, rel)] = data
	})
	return m
}

func samePages(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d pages, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || !bytes.Equal(g, w) {
			t.Fatalf("page %s: got %q (present %v), want %q", k, g, ok, w)
		}
	}
}

// TestSidecarRestartReadsIndexNotData is the acceptance check for the
// sidecar design: reopening a store with N sealed segments must read the
// small .idx files plus only the tail segment's data — not the full disk
// footprint — and serve an identical page set.
func TestSidecarRestartReadsIndexNotData(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 512})
	want := fillSealed(t, s)
	stBefore := s.Stats()
	if stBefore.Segments < 4 {
		t.Fatalf("want several segments, got %d", stBefore.Segments)
	}
	s.Close()

	r := openTest(t, dir, Options{SegmentSize: 512})
	st := r.Stats()
	if st.SidecarsLoaded != stBefore.Segments-1 {
		t.Errorf("sidecars loaded = %d, want %d (every sealed segment)", st.SidecarsLoaded, stBefore.Segments-1)
	}
	if st.SegmentsReplayed != 1 {
		t.Errorf("segments replayed = %d, want 1 (the active tail only)", st.SegmentsReplayed)
	}
	if st.SidecarBytes == 0 {
		t.Error("no sidecar bytes counted")
	}
	// The replayed bytes must be the tail segment, not the whole log.
	if st.ReplayedBytes >= stBefore.DiskBytes/2 {
		t.Errorf("replayed %d of %d disk bytes; sidecars not used", st.ReplayedBytes, stBefore.DiskBytes)
	}
	samePages(t, pageMap(r), want)
}

// TestSidecarStalenessFallsBackToReplay corrupts, truncates or deletes
// one sealed segment's sidecar and asserts recovery degrades to a full
// replay of exactly that segment, with an identical resulting index.
func TestSidecarStalenessFallsBackToReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		break_ func(t *testing.T, path string)
	}{
		{"corrupt", func(t *testing.T, path string) {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)/3] ^= 0x20
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, Options{SegmentSize: 512})
			want := fillSealed(t, s)
			sealed := s.Stats().Segments - 1
			s.Close()

			ids, err := listSegmentIDs(dir)
			if err != nil || len(ids) < 3 {
				t.Fatalf("segment ids: %v (%v)", ids, err)
			}
			victim := ids[1] // a sealed, non-tail segment
			tc.break_(t, sidecarPath(dir, victim))

			r := openTest(t, dir, Options{SegmentSize: 512})
			st := r.Stats()
			if st.SegmentsReplayed != 2 {
				t.Errorf("segments replayed = %d, want 2 (victim + tail)", st.SegmentsReplayed)
			}
			if st.SidecarsLoaded != sealed-1 {
				t.Errorf("sidecars loaded = %d, want %d", st.SidecarsLoaded, sealed-1)
			}
			samePages(t, pageMap(r), want)
			r.Close()

			// The fallback replay rewrites the sidecar: the next open is
			// back to loading every sealed segment from its index.
			r2 := openTest(t, dir, Options{SegmentSize: 512})
			st2 := r2.Stats()
			if st2.SidecarsLoaded != sealed || st2.SegmentsReplayed != 1 {
				t.Errorf("after rewrite: loaded %d replayed %d, want %d and 1",
					st2.SidecarsLoaded, st2.SegmentsReplayed, sealed)
			}
			samePages(t, pageMap(r2), want)
		})
	}
}

// TestSidecarStaleOnSizeMismatch pins the staleness rule: a sidecar
// describing fewer bytes than the segment file holds (the segment was
// appended to after the sidecar was written, e.g. under a larger
// SegmentSize) must be rejected in favour of a replay.
func TestSidecarStaleOnSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 128})
	mustPut(t, s, 1, 1, 0, bytes.Repeat([]byte("a"), 120)) // fills seg1
	mustPut(t, s, 1, 2, 0, []byte("tail"))
	s.Close()

	// Grow the segment size so seg1's sidecar goes stale once seg1 gains
	// another record. Reopen appends into... seg2 (the tail); so instead
	// append a record to seg1 by hand — the sidecar no longer matches.
	extra := appendPutRecord(nil, 99, 1, 5, 0, []byte("late"))
	f, err := os.OpenFile(segmentPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(extra); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openTest(t, dir, Options{SegmentSize: 128})
	if d, ok := r.GetPage(1, 5, 0); !ok || string(d) != "late" {
		t.Errorf("appended record invisible: stale sidecar was trusted (%q, %v)", d, ok)
	}
	if st := r.Stats(); st.SidecarsLoaded != 0 || st.SegmentsReplayed != 2 {
		t.Errorf("loaded %d replayed %d, want 0 and 2", st.SidecarsLoaded, st.SegmentsReplayed)
	}
}

// TestZeroLengthSealedSegmentRecoveredAsEmpty pins the fix for the
// zero-byte edge: a sealed segment file with no records (e.g. created by
// a roll that crashed before the first append, then orphaned by later
// segments) must recover as empty — Open deletes the file rather than
// failing, because keeping it would pin the oldest-segment id forever
// and block the compactor's tombstone dropping.
func TestZeroLengthSealedSegmentRecoveredAsEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(dir, 2),
		appendPutRecord(nil, 1, 1, 1, 0, []byte("live")), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	if d, ok := s.GetPage(1, 1, 0); !ok || string(d) != "live" {
		t.Fatalf("page lost next to empty segment: %q, %v", d, ok)
	}
	if st := s.Stats(); st.Segments != 1 || st.Pages != 1 {
		t.Errorf("stats = %+v", st)
	}
	if _, err := os.Stat(segmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Error("empty sealed segment not deleted at open")
	}
	// New appends must not collide with the deleted segment's id.
	mustPut(t, s, 1, 2, 0, []byte("after"))
	s.Close()

	r := openTest(t, dir, Options{})
	if d, ok := r.GetPage(1, 1, 0); !ok || string(d) != "live" {
		t.Fatalf("page lost after reopen: %q, %v", d, ok)
	}
	if d, ok := r.GetPage(1, 2, 0); !ok || string(d) != "after" {
		t.Fatalf("post-recovery append lost: %q, %v", d, ok)
	}
}

// TestZeroedSealedSegmentIsReported: a sealed segment whose .log is
// empty while its sidecar lists records was zeroed under them. Open
// still deletes it, but reports the loss as an error-severity
// sidecar-degrade event naming the segment and the records lost. An
// empty segment with no sidecar, a roll that crashed, stays silent.
func TestZeroedSealedSegmentIsReported(t *testing.T) {
	degrades := func(rec *trace.Tracer) []trace.Event {
		var evs []trace.Event
		for _, e := range rec.Events() {
			if e.Type == trace.SidecarDegrade {
				evs = append(evs, e)
			}
		}
		return evs
	}

	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 512})
	fillSealed(t, s)
	s.Close()
	buf, err := os.ReadFile(sidecarPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := decodeSidecar(buf)
	if err != nil {
		t.Fatal(err)
	}
	lost := len(sc.puts) + len(sc.delPages) + len(sc.delWrites)
	if lost == 0 {
		t.Fatal("test bug: the oldest sealed segment lists no records")
	}
	if err := os.Truncate(segmentPath(dir, 1), 0); err != nil {
		t.Fatal(err)
	}
	rec := trace.New("p", 0)
	openTest(t, dir, Options{SegmentSize: 512, Tracer: rec})
	evs := degrades(rec)
	if len(evs) != 1 || evs[0].Sev != trace.SevError || evs[0].Val != int64(lost) ||
		!strings.Contains(evs[0].Msg, segmentPath(dir, 1)) {
		t.Fatalf("sidecar-degrade events %+v, want one error naming %s and %d lost records",
			evs, segmentPath(dir, 1), lost)
	}
	if _, err := os.Stat(segmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Error("zeroed sealed segment not deleted at open")
	}

	crashed := t.TempDir()
	if err := os.WriteFile(segmentPath(crashed, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(crashed, 2),
		appendPutRecord(nil, 1, 1, 1, 0, []byte("live")), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = trace.New("p", 0)
	openTest(t, crashed, Options{Tracer: rec})
	if evs := degrades(rec); len(evs) != 0 {
		t.Fatalf("a crashed roll's empty segment reported: %+v", evs)
	}
}

// TestCompactionRemovesSidecar asserts a compacted-away segment's .idx
// file is unlinked with its .log, and a restart over the compacted
// directory reaches the identical page set.
func TestCompactionRemovesSidecar(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 512})
	want := fillSealed(t, s)
	for {
		again, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !again {
			break
		}
	}
	s.Close()

	logs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	idxs, _ := filepath.Glob(filepath.Join(dir, "*"+idxSuffix))
	for _, idx := range idxs {
		log := filepath.Join(dir, filepath.Base(idx[:len(idx)-len(idxSuffix)])+segSuffix)
		if _, err := os.Stat(log); err != nil {
			t.Errorf("orphan sidecar %s survives its segment", idx)
		}
	}
	if len(idxs) > len(logs) {
		t.Errorf("%d sidecars for %d segments", len(idxs), len(logs))
	}
	r := openTest(t, dir, Options{SegmentSize: 512})
	samePages(t, pageMap(r), want)
}

// TestOrphanSidecarRemovedAtOpen pins the id-reuse guard: an .idx file
// whose segment is gone is deleted by Open, so it can never be paired
// with a future segment that reuses the id.
func TestOrphanSidecarRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	sc := &sidecar{id: 9, dataSize: 0}
	if err := writeSidecarFile(dir, sc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidecarPath(dir, 3)+".tmp", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	s.Close()
	if _, err := os.Stat(sidecarPath(dir, 9)); !os.IsNotExist(err) {
		t.Error("orphan sidecar survived Open")
	}
	if _, err := os.Stat(sidecarPath(dir, 3) + ".tmp"); !os.IsNotExist(err) {
		t.Error("torn sidecar temp file survived Open")
	}
}

// TestSidecarRoundTrip checks the codec against itself, including the
// corrupt-rejection paths the staleness machinery relies on.
func TestSidecarRoundTrip(t *testing.T) {
	sc := &sidecar{
		id:       4,
		dataSize: 4096,
		maxSeq:   77,
		puts: []sidecarPut{
			{blob: 1, write: 2, rel: 3, seq: 10, off: 0, size: 100},
			{blob: 1, write: 2, rel: 4, seq: 11, off: 100, size: 200},
		},
		delPages:  []sidecarDelPages{{blob: 1, write: 9, rel: 0, seq: 12}},
		delWrites: []sidecarDelWrite{{blob: 2, write: 1, seq: 13}},
	}
	buf := sc.encode()
	got, err := decodeSidecar(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.id != sc.id || got.dataSize != sc.dataSize || got.maxSeq != sc.maxSeq ||
		len(got.puts) != 2 || got.puts[1] != sc.puts[1] ||
		len(got.delPages) != 1 || got.delPages[0] != sc.delPages[0] ||
		len(got.delWrites) != 1 || got.delWrites[0] != sc.delWrites[0] {
		t.Errorf("round trip mismatch: %+v", got)
	}
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { b[5] ^= 1; return b },        // header bit
		func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, // checksum bit
		func(b []byte) []byte { return b[:len(b)-3] },        // torn tail
		func(b []byte) []byte { return b[:20] },              // short file
	} {
		if _, err := decodeSidecar(mutate(bytes.Clone(buf))); err == nil {
			t.Error("corrupt sidecar accepted")
		}
	}

	// A checksum-valid file whose put entry overflows off+size must be
	// rejected, not wrapped past the range check into a giant GetPage
	// allocation.
	evil := &sidecar{
		id: 4, dataSize: 4096,
		puts: []sidecarPut{{blob: 1, write: 2, rel: 3, seq: 10, off: 1 << 62, size: 1 << 62}},
	}
	if _, err := decodeSidecar(evil.encode()); err == nil {
		t.Error("overflowing put entry accepted")
	}

	// A version-2 sidecar — the same sections followed by a bloom
	// filter, under a valid checksum — is corrupt to this reader, so its
	// segment replays.
	v2 := bytes.Clone(buf[:len(buf)-8])
	binary.LittleEndian.PutUint32(v2[4:], 2)
	v2 = binary.LittleEndian.AppendUint32(v2, 7) // probes
	v2 = binary.LittleEndian.AppendUint32(v2, 1) // words
	v2 = binary.LittleEndian.AppendUint64(v2, 0)
	v2 = binary.LittleEndian.AppendUint64(v2, wire.Checksum64(v2))
	if _, err := decodeSidecar(v2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("version-2 sidecar: err = %v, want ErrCorrupt", err)
	}
}
