package diskstore

// Tests and microbenchmarks for the garbage-free paths: PutPages encodes
// a batch into one store-owned buffer and writes it once per segment,
// and ReadPage returns a record's page where it lies in its segment's
// mapping.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

const benchPage = 64 << 10

// pageBatch returns n benchPage-sized pages of write w, each with
// distinct content.
func pageBatch(w uint64, n int) []Page {
	ps := make([]Page, n)
	for i := range ps {
		data := make([]byte, benchPage)
		for j := range data {
			data[j] = byte(int(w)*7 + i*13 + j)
		}
		ps[i] = Page{Blob: 1, Write: w, Rel: uint32(i), Data: data}
	}
	return ps
}

// segmentSizes maps each segment file in dir to its byte count.
func segmentSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64)
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		sizes[filepath.Base(f)] = fi.Size()
	}
	return sizes
}

// TestPutPagesBatchKeepsSegmentLayout: a batch that spans several
// segments must roll exactly where page-at-a-time appends roll, index
// every page, and recover them all after a restart.
func TestPutPagesBatchKeepsSegmentLayout(t *testing.T) {
	const segSize = 3*benchPage + benchPage/2 // a segment takes four records, then rolls
	batch := pageBatch(7, 16)

	dirBatch, dirSingle := t.TempDir(), t.TempDir()
	sb := openTest(t, dirBatch, Options{SegmentSize: segSize})
	if n, err := sb.PutPages(batch); err != nil || n != len(batch) {
		t.Fatalf("batch put = %d, %v", n, err)
	}
	ss := openTest(t, dirSingle, Options{SegmentSize: segSize})
	for _, p := range batch {
		mustPut(t, ss, p.Blob, p.Write, p.Rel, p.Data)
	}
	got, want := segmentSizes(t, dirBatch), segmentSizes(t, dirSingle)
	if len(want) != 4 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("segment layout differs:\n batch  %v\n single %v", got, want)
	}

	check := func(s *Store) {
		t.Helper()
		for _, p := range batch {
			if d, ok := s.GetPage(p.Blob, p.Write, p.Rel); !ok || !bytes.Equal(d, p.Data) {
				t.Fatalf("page %d: found=%v, bytes equal=%v", p.Rel, ok, bytes.Equal(d, p.Data))
			}
		}
	}
	check(sb)
	sb.Close()
	check(openTest(t, dirBatch, Options{SegmentSize: segSize}))
}

// TestPutPagesBatchAllocs is the append-side garbage gate: a 16-page
// batch is encoded into the store's reused buffer, so what a put
// allocates is bookkeeping (index and sidecar entries), never a
// page-sized record buffer per page — that used to be 16 × 64 KiB.
func TestPutPagesBatchAllocs(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	batch := pageBatch(0, 16)
	put := func(w uint64) {
		for i := range batch {
			batch[i].Write = w
		}
		if _, err := s.PutPages(batch); err != nil {
			t.Fatal(err)
		}
	}
	w := uint64(1)
	for ; w <= 8; w++ { // grow the batch buffer, roll a segment or two
		put(w)
	}
	const runs = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		put(w)
		w++
	})
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("%.1f allocs, %d bytes per 16-page batch", allocs, perRun)
	if perRun >= benchPage {
		t.Errorf("a 16-page batch allocates %d bytes: a page-sized buffer per put is back", perRun)
	}
	if allocs >= 40 {
		t.Errorf("a 16-page batch makes %.1f allocations, want bookkeeping only (< 40)", allocs)
	}
}

// TestReadPageUsesCallerBuffer pins the read contract, restated for
// mapped segments: the page ReadPage returns is the record's payload
// where it lies in its segment's mapping — no buffer is filled — and it
// comes with a pin on that segment; an absent page comes with none.
func TestReadPageUsesCallerBuffer(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	mustPut(t, s, 1, 2, 3, []byte("cutout"))
	data, pin, ok := s.ReadPage(1, 2, 3)
	if !ok || string(data) != "cutout" || pin == nil {
		t.Fatalf("ReadPage = %q, %v, %v", data, pin, ok)
	}
	s.mu.RLock()
	l := s.index[writeKey{1, 2}][3]
	s.mu.RUnlock()
	if pin.seg != l.seg || &data[0] != &l.seg.data[l.off+recHeaderSize+putBodyPrefix] {
		t.Error("page bytes do not alias the record in its pinned segment's mapping")
	}
	before := l.seg.refs.Load()
	pin.Release()
	if after := l.seg.refs.Load(); after != before-1 {
		t.Errorf("Release took segment refs %d -> %d, want one fewer", before, after)
	}
	if _, pin, ok := s.ReadPage(1, 2, 4); ok || pin != nil {
		t.Errorf("absent page: found=%v, pin=%v", ok, pin)
	}
}

func BenchmarkGetPage(b *testing.B) {
	s := openTest(b, b.TempDir(), Options{})
	const pages = 256
	for w := uint64(0); w < pages/16; w++ {
		if _, err := s.PutPages(pageBatch(w, 16)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(benchPage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.GetPage(1, uint64(i/16%(pages/16)), uint32(i%16)); !ok {
			b.Fatal("missing page")
		}
	}
}

func BenchmarkPutPages(b *testing.B) {
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := openTest(b, b.TempDir(), Options{})
			batch := pageBatch(0, n)
			b.SetBytes(int64(n) * benchPage)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j].Write = uint64(i + 1)
				}
				if _, err := s.PutPages(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
