package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTest(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, blob, write uint64, rel uint32, data []byte) {
	t.Helper()
	if _, err := s.PutPages([]Page{{Blob: blob, Write: write, Rel: rel, Data: data}}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	mustPut(t, s, 1, 10, 0, []byte("page zero"))
	mustPut(t, s, 1, 10, 1, []byte("page one"))
	d, ok := s.GetPage(1, 10, 1)
	if !ok || string(d) != "page one" {
		t.Errorf("GetPage = %q, %v", d, ok)
	}
	if _, ok := s.GetPage(1, 10, 2); ok {
		t.Error("absent page reported found")
	}
	if _, ok := s.GetPage(2, 10, 0); ok {
		t.Error("wrong blob reported found")
	}
	st := s.Stats()
	if st.Pages != 2 || st.PageBytes != int64(len("page zero")+len("page one")) {
		t.Errorf("stats = %+v", st)
	}
}

func TestPutIdempotent(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	mustPut(t, s, 1, 1, 0, []byte("first"))
	before := s.Stats().DiskBytes
	mustPut(t, s, 1, 1, 0, []byte("second"))
	if s.Stats().DiskBytes != before {
		t.Error("duplicate put wrote bytes")
	}
	d, _ := s.GetPage(1, 1, 0)
	if string(d) != "first" {
		t.Errorf("page overwritten: %q", d)
	}
}

func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 256}) // force several segments
	type pg struct {
		w   uint64
		rel uint32
	}
	want := map[pg][]byte{}
	for w := uint64(1); w <= 5; w++ {
		for rel := uint32(0); rel < 8; rel++ {
			data := bytes.Repeat([]byte{byte(w), byte(rel)}, 20)
			mustPut(t, s, 7, w, rel, data)
			want[pg{w, rel}] = data
		}
	}
	if _, err := s.DeleteWrite(7, 3); err != nil {
		t.Fatal(err)
	}
	for rel := uint32(0); rel < 8; rel++ {
		delete(want, pg{3, rel})
	}
	if _, err := s.DeletePages(7, 4, []uint32{1, 5}); err != nil {
		t.Fatal(err)
	}
	delete(want, pg{4, 1})
	delete(want, pg{4, 5})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{SegmentSize: 256})
	for k, data := range want {
		d, ok := r.GetPage(7, k.w, k.rel)
		if !ok || !bytes.Equal(d, data) {
			t.Fatalf("after restart: page (%d,%d) = %v, %v", k.w, k.rel, ok, d)
		}
	}
	if _, ok := r.GetPage(7, 3, 0); ok {
		t.Error("deleted write resurrected by restart")
	}
	if _, ok := r.GetPage(7, 4, 5); ok {
		t.Error("deleted page resurrected by restart")
	}
	if got := r.Stats().Pages; got != int64(len(want)) {
		t.Errorf("recovered pages = %d, want %d", got, len(want))
	}
}

// lastSegment returns the path of the highest-id segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ids, err := listSegmentIDs(dir)
	if err != nil || len(ids) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return segmentPath(dir, ids[len(ids)-1])
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	mustPut(t, s, 1, 1, 0, []byte("earlier record"))
	mustPut(t, s, 1, 1, 1, []byte("the torn one"))
	s.Close()

	// Cut the final record short, as a crash mid-append would.
	path := lastSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	if d, ok := r.GetPage(1, 1, 0); !ok || string(d) != "earlier record" {
		t.Errorf("earlier record lost: %q, %v", d, ok)
	}
	if _, ok := r.GetPage(1, 1, 1); ok {
		t.Error("torn record served")
	}
	if r.Stats().TruncatedBytes == 0 {
		t.Error("no truncation reported")
	}
	// The torn bytes must be physically gone so new appends are clean.
	mustPut(t, r, 1, 1, 2, []byte("after recovery"))
	r.Close()
	r2 := openTest(t, dir, Options{})
	if d, ok := r2.GetPage(1, 1, 2); !ok || string(d) != "after recovery" {
		t.Errorf("post-recovery append lost: %q, %v", d, ok)
	}
}

func TestCorruptChecksumRejected(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	mustPut(t, s, 1, 1, 0, []byte("good"))
	mustPut(t, s, 1, 1, 1, []byte("will rot"))
	s.Close()

	// Flip one bit inside the second record's payload.
	path := lastSegment(t, dir)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	if d, ok := r.GetPage(1, 1, 0); !ok || string(d) != "good" {
		t.Errorf("good record lost: %q, %v", d, ok)
	}
	if d, ok := r.GetPage(1, 1, 1); ok {
		t.Errorf("rotten record served: %q", d)
	}
}

// TestSealedSegmentCorruptionFailsOpen pins the recovery policy split:
// only the newest segment can legitimately hold a torn record, so when a
// sealed segment must be replayed (no usable index sidecar), bit rot in
// it must fail Open loudly rather than silently dropping the records
// behind it (which could resurrect deleted pages).
func TestSealedSegmentCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 128})
	mustPut(t, s, 1, 1, 0, bytes.Repeat([]byte("a"), 120)) // fills seg1
	mustPut(t, s, 1, 2, 0, bytes.Repeat([]byte("b"), 120)) // fills seg2
	mustPut(t, s, 1, 3, 0, []byte("c"))                    // seg3 (newest)
	s.Close()
	buf, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(segmentPath(dir, 1), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// Force the replay path: without its sidecar the sealed segment must
	// be scanned, and the scan must refuse the rotten record.
	if err := os.Remove(sidecarPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentSize: 128}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

// TestBitRotBehindValidSidecarSurfacesAtRead pins the sidecar-era side
// of the policy: a sealed segment with a valid sidecar is not replayed,
// so data-level bit rot surfaces at read time — the record checksum makes
// GetPage report the page absent rather than serve bad bytes — while
// every other page keeps working.
func TestBitRotBehindValidSidecarSurfacesAtRead(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 128})
	mustPut(t, s, 1, 1, 0, bytes.Repeat([]byte("a"), 120)) // fills seg1
	mustPut(t, s, 1, 2, 0, bytes.Repeat([]byte("b"), 120)) // fills seg2
	mustPut(t, s, 1, 3, 0, []byte("c"))
	s.Close()
	buf, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(segmentPath(dir, 1), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir, Options{SegmentSize: 128})
	if d, ok := r.GetPage(1, 1, 0); ok {
		t.Errorf("rotten record served: %q", d)
	}
	if d, ok := r.GetPage(1, 2, 0); !ok || !bytes.Equal(d, bytes.Repeat([]byte("b"), 120)) {
		t.Errorf("healthy page lost: %v", ok)
	}
}

func TestCompactionReclaimsDisk(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 512})
	for w := uint64(1); w <= 10; w++ {
		for rel := uint32(0); rel < 4; rel++ {
			mustPut(t, s, 1, w, rel, bytes.Repeat([]byte{byte(w)}, 64))
		}
	}
	for w := uint64(1); w <= 8; w++ {
		if _, err := s.DeleteWrite(1, w); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	for {
		again, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !again {
			break
		}
	}
	after := s.Stats()
	if after.DiskBytes >= before.DiskBytes {
		t.Errorf("disk not reclaimed: %d -> %d", before.DiskBytes, after.DiskBytes)
	}
	if after.Compactions == 0 {
		t.Error("no compactions counted")
	}
	for w := uint64(9); w <= 10; w++ {
		for rel := uint32(0); rel < 4; rel++ {
			d, ok := s.GetPage(1, w, rel)
			if !ok || !bytes.Equal(d, bytes.Repeat([]byte{byte(w)}, 64)) {
				t.Fatalf("survivor (%d,%d) lost after compaction", w, rel)
			}
		}
	}
	// Compaction must preserve durability: restart and re-check.
	s.Close()
	r := openTest(t, dir, Options{SegmentSize: 512})
	if _, ok := r.GetPage(1, 1, 0); ok {
		t.Error("deleted page resurrected after compaction+restart")
	}
	if d, ok := r.GetPage(1, 9, 3); !ok || !bytes.Equal(d, bytes.Repeat([]byte{9}, 64)) {
		t.Error("survivor lost after compaction+restart")
	}
}

// TestTombstoneSurvivesCompactionOfItsSegment pins the subtle replay-
// order invariant: compacting the segment that holds a tombstone, while
// the put record it guards still exists in an older segment, must not
// resurrect the page on restart.
func TestTombstoneSurvivesCompactionOfItsSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 128})
	mustPut(t, s, 1, 1, 0, bytes.Repeat([]byte("a"), 120)) // fills segment 1
	mustPut(t, s, 1, 2, 0, bytes.Repeat([]byte("b"), 120)) // fills segment 2
	// Segment 3: tombstone for the write in segment 1, plus one live page
	// so the segment isn't fully dead bookkeeping.
	if _, err := s.DeleteWrite(1, 1); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, 1, 3, 0, []byte("c"))
	// Force-compact every sealed segment (threshold 0 approximated by a
	// tiny min-dead) except the oldest, so the tombstone's own segment is
	// rewritten while segment 1's put record remains on disk.
	s.mu.RLock()
	var tombSeg *segment
	for _, seg := range s.segs {
		if seg != s.active && seg.live < seg.size && seg.id != 1 {
			tombSeg = seg
		}
	}
	s.mu.RUnlock()
	if tombSeg == nil {
		t.Skip("layout changed; tombstone segment not identifiable")
	}
	s.opts.CompactMinDead = 0.01
	if _, err := s.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := openTest(t, dir, Options{SegmentSize: 128})
	if _, ok := r.GetPage(1, 1, 0); ok {
		t.Error("tombstone dropped during compaction: deleted page resurrected")
	}
	if d, ok := r.GetPage(1, 3, 0); !ok || string(d) != "c" {
		t.Errorf("live page lost: %q, %v", d, ok)
	}
}

func TestConcurrentReadDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 1024, CompactMinDead: 0.2})
	const writes = 20
	page := func(w uint64, rel uint32) []byte {
		return bytes.Repeat([]byte{byte(w), byte(rel)}, 50)
	}
	for w := uint64(1); w <= writes; w++ {
		for rel := uint32(0); rel < 4; rel++ {
			mustPut(t, s, 1, w, rel, page(w, rel))
		}
	}
	// Kill most even writes so many segments qualify for compaction.
	for w := uint64(2); w <= writes; w += 2 {
		if _, err := s.DeleteWrite(1, w); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w := uint64(2*(i%(writes/2)) + 1) // odd writes stay live
				rel := uint32(i % 4)
				d, ok := s.GetPage(1, w, rel)
				if !ok || !bytes.Equal(d, page(w, rel)) {
					errc <- fmt.Errorf("goroutine %d: page (%d,%d) = %v, %v", g, w, rel, d, ok)
					return
				}
			}
		}(g)
	}
	for {
		again, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !again {
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

func TestTruncatedHeaderTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	mustPut(t, s, 1, 1, 0, []byte("keep me"))
	s.Close()
	path := lastSegment(t, dir)
	// Append a lone partial header (3 bytes of a length prefix).
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0xff, 0xff})
	f.Close()
	r := openTest(t, dir, Options{})
	if d, ok := r.GetPage(1, 1, 0); !ok || string(d) != "keep me" {
		t.Errorf("record lost: %q, %v", d, ok)
	}
}

func TestHugeLengthPrefixRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A segment whose first record claims a body far past maxBodyLen
	// must not panic or allocate wildly — the whole file is truncated.
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<31-1)
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	if st := s.Stats(); st.Pages != 0 || st.TruncatedBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReplayResolvesBySeqNotFilePosition pins the recovery semantics
// compaction relies on: a rewritten tombstone may physically sit in a
// higher-id segment than a newer re-put of the same page, and recovery
// must resolve by sequence number, not segment order.
func TestReplayResolvesBySeqNotFilePosition(t *testing.T) {
	dir := t.TempDir()
	// seg1: the re-put of page X (seq 5). seg2: a stale tombstone for X
	// (seq 3) — the layout a compactor that relocated the tombstone
	// leaves behind.
	if err := os.WriteFile(segmentPath(dir, 1),
		appendPutRecord(nil, 5, 1, 1, 0, []byte("re-put wins")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(dir, 2),
		appendDelWriteRecord(nil, 3, 1, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	if d, ok := s.GetPage(1, 1, 0); !ok || string(d) != "re-put wins" {
		t.Errorf("stale relocated tombstone killed a newer put: %q, %v", d, ok)
	}
	// And the converse: a tombstone with a higher seq deletes the page
	// wherever the records sit.
	dir2 := t.TempDir()
	if err := os.WriteFile(segmentPath(dir2, 1),
		appendDelWriteRecord(nil, 7, 1, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(dir2, 2),
		appendPutRecord(nil, 5, 1, 1, 0, []byte("deleted")), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir2, Options{})
	if _, ok := s2.GetPage(1, 1, 0); ok {
		t.Error("page with seq below its tombstone resurrected")
	}
}

// TestRePutAfterDeleteSurvivesCompactionAndRestart exercises the
// end-to-end sequence the seq numbers exist for: put, GC delete, re-put,
// compact everything eligible, restart — the re-put data must survive.
func TestRePutAfterDeleteSurvivesCompactionAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: 128, CompactMinDead: 0.1})
	mustPut(t, s, 1, 1, 0, bytes.Repeat([]byte("a"), 120)) // fills seg1
	mustPut(t, s, 1, 9, 0, bytes.Repeat([]byte("b"), 120)) // fills seg2
	if _, err := s.DeleteWrite(1, 1); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, 1, 1, 0, []byte("second life")) // re-put after GC
	for {
		again, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !again {
			break
		}
	}
	if d, ok := s.GetPage(1, 1, 0); !ok || string(d) != "second life" {
		t.Fatalf("re-put lost after compaction: %q, %v", d, ok)
	}
	s.Close()
	r := openTest(t, dir, Options{SegmentSize: 128})
	if d, ok := r.GetPage(1, 1, 0); !ok || string(d) != "second life" {
		t.Errorf("re-put lost after compaction+restart: %q, %v", d, ok)
	}
	if d, ok := r.GetPage(1, 9, 0); !ok || !bytes.Equal(d, bytes.Repeat([]byte("b"), 120)) {
		t.Errorf("bystander write lost: %v", ok)
	}
}

// TestCapacityIdempotentRetry pins the capacity accounting: a retried
// batch of already-stored pages must succeed near the limit, because
// nothing new is written.
func TestCapacityIdempotentRetry(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Capacity: 100})
	batch := []Page{{Blob: 1, Write: 1, Rel: 0, Data: make([]byte, 60)}}
	if _, err := s.PutPages(batch); err != nil {
		t.Fatal(err)
	}
	// The retry carries no new bytes and must not trip the capacity gate.
	if n, err := s.PutPages(batch); err != nil || n != 0 {
		t.Errorf("idempotent retry: stored %d, err %v", n, err)
	}
	// A genuinely new over-limit batch still fails atomically.
	over := []Page{
		{Blob: 1, Write: 2, Rel: 0, Data: make([]byte, 30)},
		{Blob: 1, Write: 2, Rel: 1, Data: make([]byte, 30)},
	}
	if _, err := s.PutPages(over); !errors.Is(err, ErrCapacity) {
		t.Errorf("err = %v, want ErrCapacity", err)
	}
	if _, ok := s.GetPage(1, 2, 0); ok {
		t.Error("partial batch stored despite capacity failure")
	}
	// After freeing space the same batch fits.
	if _, err := s.DeleteWrite(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutPages(over); err != nil {
		t.Errorf("put after delete: %v", err)
	}
}

// TestOversizedPageRejected pins the up-front bound: a page too large to
// re-decode must be refused, not persisted as a poison record.
func TestOversizedPageRejected(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	huge := Page{Blob: 1, Write: 1, Rel: 0, Data: make([]byte, MaxPageSize+1)}
	if _, err := s.PutPages([]Page{huge}); err == nil {
		t.Fatal("oversized page accepted")
	}
	if st := s.Stats(); st.DiskBytes != 0 {
		t.Errorf("oversized page left %d bytes on disk", st.DiskBytes)
	}
}

func TestForEachPage(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	mustPut(t, s, 1, 1, 0, []byte("aa"))
	mustPut(t, s, 2, 1, 1, []byte("bb"))
	seen := map[string]bool{}
	s.ForEachPage(func(blob, write uint64, rel uint32, data []byte) {
		seen[fmt.Sprintf("%d/%d/%d=%s", blob, write, rel, data)] = true
	})
	if !seen["1/1/0=aa"] || !seen["2/1/1=bb"] || len(seen) != 2 {
		t.Errorf("seen = %v", seen)
	}
}
