package diskstore

// Tests for the mapped read path: every record lies inside its
// segment's mapping, a put reads back through the mapping at once, a
// fault on a mapped page reads as absent, and a pin keeps its segment
// mapped until it is released, exactly once.

import (
	"bytes"
	"os"
	"testing"
)

// TestRecordsStayInsideTheirMapping pins the mapping span rule: a page
// put into the active segment reads back at once, including one whose
// record crosses SegmentSize; a record that would end past the active
// segment's 2 × SegmentSize mapping starts a segment of its own, mapped
// over it; and no live record reaches past its segment's mapping.
func TestRecordsStayInsideTheirMapping(t *testing.T) {
	const segSize = 4096
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentSize: segSize})
	pages := map[uint32][]byte{
		0: bytes.Repeat([]byte{1}, 1000),
		1: bytes.Repeat([]byte{2}, 6000),          // starts below SegmentSize, ends past it
		2: bytes.Repeat([]byte{3}, 3*segSize),     // larger than the 2 × SegmentSize mapping
		3: bytes.Repeat([]byte{4}, 100),           // after a segment of one record
		4: bytes.Repeat([]byte{5}, 2*segSize-100), // fits only an empty mapping
	}
	for rel := uint32(0); rel < uint32(len(pages)); rel++ {
		mustPut(t, s, 1, 1, rel, pages[rel])
		data, pin, ok := s.ReadPage(1, 1, rel)
		if !ok || !bytes.Equal(data, pages[rel]) {
			t.Fatalf("page %d does not read back at once after its put", rel)
		}
		pin.Release()
	}
	s.mu.RLock()
	locs := s.index[writeKey{1, 1}]
	for rel, l := range locs {
		if l.off+l.size > int64(len(l.seg.data)) {
			t.Errorf("page %d: record [%d, %d) reaches past its %d-byte mapping",
				rel, l.off, l.off+l.size, len(l.seg.data))
		}
	}
	if locs[1].seg != locs[0].seg {
		t.Error("page 1 left the active segment although it fits its mapping")
	}
	if big := locs[2]; big.seg == locs[1].seg || big.off != 0 || int64(len(big.seg.data)) < big.size {
		t.Errorf("oversized record: segment %d at offset %d, mapping %d bytes for %d; want a segment of its own mapped over it",
			big.seg.id, big.off, len(big.seg.data), big.size)
	}
	if locs[3].seg == locs[2].seg {
		t.Error("a record was appended to a segment already past SegmentSize")
	}
	if locs[4].seg == locs[3].seg {
		t.Error("page 4 was appended past its segment's mapping")
	}
	s.mu.RUnlock()

	// A restart maps every segment again, each over its whole file.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, Options{SegmentSize: segSize})
	for rel, want := range pages {
		if got, ok := s.GetPage(1, 1, rel); !ok || !bytes.Equal(got, want) {
			t.Errorf("page %d lost across a restart", rel)
		}
	}
}

// TestTruncatedSegmentReadsAbsent: a segment file cut short behind the
// store's back faults on the mapped pages past its new end; the read
// reports the page absent, and the process survives.
func TestTruncatedSegmentReadsAbsent(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	page := bytes.Repeat([]byte("mapped"), 4<<10) // 24 KiB: the record spans several OS pages
	mustPut(t, s, 1, 1, 0, page)
	mustPut(t, s, 1, 1, 1, []byte("second"))
	seg := lastSegment(t, dir)
	s.mu.RLock()
	mapped := s.index[writeKey{1, 1}][0].seg.data
	s.mu.RUnlock()
	for _, size := range []int64{8 << 10, 0} { // cut inside the first record, then to nothing
		if err := os.Truncate(seg, size); err != nil {
			t.Fatal(err)
		}
		for rel := uint32(0); rel < 2; rel++ {
			if data, pin, ok := s.ReadPage(1, 1, rel); ok || pin != nil || data != nil {
				t.Errorf("truncated to %d: ReadPage(%d) = %d bytes, %v, %v; want absent", size, rel, len(data), pin, ok)
			}
			if _, ok := s.GetPage(1, 1, rel); ok {
				t.Errorf("truncated to %d: GetPage(%d) served", size, rel)
			}
		}
		if readMapped(func() { faultSink = mapped[size+4096] }) {
			t.Errorf("truncated to %d: a mapped page past the new end read without a fault", size)
		}
	}
}

var faultSink byte

// TestPinLifetime: a pin keeps its page readable past Close, releasing
// it twice panics as an rpc.Buf's double release does, and the last
// release unmaps the segment.
func TestPinLifetime(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	mustPut(t, s, 1, 1, 0, []byte("pinned page"))
	data, pin, ok := s.ReadPage(1, 1, 0)
	if !ok {
		t.Fatal("page absent")
	}
	seg := pin.seg
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if string(data) != "pinned page" || seg.data == nil {
		t.Fatal("a pinned segment was unmapped by Close")
	}
	pin.Release()
	if seg.data != nil || seg.refs.Load() != 0 {
		t.Errorf("last release left the segment mapped (refs %d)", seg.refs.Load())
	}
	defer func() {
		if recover() == nil {
			t.Error("second Release of a pin did not panic")
		}
	}()
	pin.Release()
}
