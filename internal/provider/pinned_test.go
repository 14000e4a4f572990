package provider

// Tests for the copy-free serve path: a disk-backed provider serves
// each record where it lies in its segment's mapping (GetPagePinned),
// handleGetPages returns the pins as held, and the rpc server releases
// them once the response is flushed.

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blob/internal/diskstore"
	"blob/internal/netsim"
	"blob/internal/rpc"
	"blob/internal/wire"
)

const servePage = 64 << 10

// servedPage returns the deterministic content of page (write, rel).
func servedPage(write uint64, rel uint32, size int) []byte {
	p := make([]byte, size)
	binary.LittleEndian.PutUint64(p, write)
	binary.LittleEndian.PutUint32(p[8:], rel)
	for i := 12; i < size; i++ {
		p[i] = byte(uint64(i)*31 + write*7 + uint64(rel))
	}
	return p
}

// fillWrite stores pages [0,n) of (1, write) and returns their refs.
func fillWrite(t testing.TB, ps PageStore, write uint64, n, size int) []PageRef {
	t.Helper()
	pages := make([]Page, n)
	refs := make([]PageRef, n)
	for i := range pages {
		pages[i] = Page{Blob: 1, Write: write, RelPage: uint32(i), Data: servedPage(write, uint32(i), size)}
		refs[i] = PageRef{Blob: 1, Write: write, RelPage: uint32(i)}
	}
	if err := ps.PutPages(pages); err != nil {
		t.Fatal(err)
	}
	return refs
}

func releaseAll(held []rpc.Releaser) {
	for _, b := range held {
		b.Release()
	}
}

// TestServeFromDiskAllocatesNoPageBuffers is the read-side garbage gate:
// serving 16 × 64 KiB pages from a DiskStore through handleGetPages, with
// the held pins released as the rpc server releases them after the
// flush, allocates the response framing only — the pages are sent from
// their segments' mappings, and pins come from a pool.
func TestServeFromDiskAllocatesNoPageBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds pins at random under the race detector")
	}
	d, err := NewDiskStore(diskstore.Options{Dir: t.TempDir()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	refs := fillWrite(t, d, 2, 16, servePage)
	sv := NewService(d)
	body := EncodeGetPages(refs)
	ctx := context.Background()
	serve := func() {
		segs, held, err := sv.handleGetPages(ctx, body)
		if err != nil || len(held) != len(refs) || len(segs) != 1+len(refs) {
			t.Fatalf("serve: %d segs, %d held, %v", len(segs), len(held), err)
		}
		releaseAll(held)
	}
	for i := 0; i < 4; i++ { // fill the pin pool
		serve()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, serve)
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("%.1f allocs, %d bytes per 16-page serve", allocs, perRun)
	// A GC cycle may empty the sync.Pool mid-measurement and cost a few
	// refills; a page-sized allocation per page (16 × 64 KiB per run) is
	// two orders of magnitude above this bound.
	if perRun >= servePage {
		t.Errorf("a 16-page serve allocates %d bytes: page-sized read buffers are back", perRun)
	}
	if allocs > 8 {
		t.Errorf("a 16-page serve makes %.1f allocations, want <= 8 (response framing; no allocation per page)", allocs)
	}
}

// TestServedPagesAliasHeldBuffers pins the ownership hand-off, restated
// for mapped segments: a disk-backed response holds one pin per page,
// every page segment is the record's bytes where they lie in the
// segment's shared mapping — a write to the file behind the store's
// back shows through the served slice — and releasing a pin twice
// panics.
func TestServedPagesAliasHeldBuffers(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(diskstore.Options{Dir: dir}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	refs := fillWrite(t, d, 3, 4, 4096)
	body := EncodeGetPages(refs)
	ctx := context.Background()

	segs, held, err := NewService(d).handleGetPages(ctx, body)
	if err != nil || len(held) != len(refs) {
		t.Fatalf("disk serve: %d held, %v", len(held), err)
	}
	for i := range refs {
		if _, ok := held[i].(*diskstore.Pin); !ok {
			t.Fatalf("held[%d] is a %T, want a *diskstore.Pin", i, held[i])
		}
		if !bytes.Equal(segs[1+i], servedPage(3, uint32(i), 4096)) {
			t.Fatalf("page %d: wrong bytes", i)
		}
	}
	seg := filepath.Join(dir, "seg-00000001.log")
	file, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(file, servedPage(3, 2, 4096))
	if at < 0 {
		t.Fatal("test bug: page 2 not found in the segment file")
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stamp := []byte("written behind the store's back")
	if _, err := f.WriteAt(stamp, int64(at)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !bytes.HasPrefix(segs[1+2], stamp) {
		t.Error("served page 2 does not alias its segment's mapping")
	}
	releaseAll(held)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second release of a held pin did not panic")
			}
		}()
		held[0].Release()
	}()
}

// TestPinnedPagesOutliveCompaction pins the mapping lifetime: a served
// response whose pages alias a segment keeps its bytes after compaction
// relocates their records and retires the segment, and the segment file
// is removed only once the response's pins are released.
func TestPinnedPagesOutliveCompaction(t *testing.T) {
	dir := t.TempDir()
	// Two 4 KiB records per segment: pages 0 and 1 fill segment 1, and
	// page 2 rolls to segment 2, sealing segment 1.
	d, err := NewDiskStore(diskstore.Options{Dir: dir, SegmentSize: 5000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	refs := fillWrite(t, d, 4, 4, 4096)
	segs, held, err := NewService(d).handleGetPages(context.Background(), EncodeGetPages(refs[:1]))
	if err != nil || len(held) != 1 {
		t.Fatalf("disk serve: %d held, %v", len(held), err)
	}
	if n := d.DeletePages(1, 4, []uint32{1}); n != 1 {
		t.Fatalf("DeletePages = %d", n)
	}
	if ok, err := d.CompactOnce(); !ok || err != nil {
		t.Fatalf("CompactOnce = %v, %v; want segment 1 rewritten", ok, err)
	}
	seg1 := filepath.Join(dir, "seg-00000001.log")
	if _, err := os.Stat(seg1); err != nil {
		t.Fatalf("segment 1 removed while a served page still aliases it: %v", err)
	}
	if !bytes.Equal(segs[1], servedPage(4, 0, 4096)) {
		t.Fatal("served page changed after its segment was compacted away")
	}
	if got, ok := d.GetPage(1, 4, 0); !ok || !bytes.Equal(got, servedPage(4, 0, 4096)) {
		t.Fatal("page 0 unreadable at its new location")
	}
	releaseAll(held)
	if _, err := os.Stat(seg1); !os.IsNotExist(err) {
		t.Fatalf("segment 1 still on disk after the last pin was released: %v", err)
	}
}

// TestPooledServeStress hammers the pinned serve over a real rpc
// server: concurrent MGetPages calls race CompactOnce (records move
// between segments under the readers, and retired segments are
// unmapped), DeletePages (responses mix found and missing pages) and
// clients that close their connection while a 16-page response is being
// read or flushed (the server drops or fails the reply that holds the
// pins). Every page any call returns must carry its own checksum: a
// segment unmapped while a response still aliased it would surface as a
// fault or cross-talk here, or as a data race under -race.
func TestPooledServeStress(t *testing.T) {
	fab := netsim.New(netsim.Fast())
	defer fab.Close()
	d, err := NewDiskStore(diskstore.Options{
		Dir: t.TempDir(), SegmentSize: 6 * 4096, CompactMinDead: 0.2,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	NewService(d).RegisterHandlers(srv)
	l, err := fab.Host("prov").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	defer func() { srv.Close(); d.Close() }()

	const (
		writes  = 12
		perW    = 16
		size    = 4096
		readers = 6
		calls   = 150
	)
	var sums [writes][perW]uint64
	reqs := make([][]byte, writes)
	for w := 0; w < writes; w++ {
		reqs[w] = EncodeGetPages(fillWrite(t, d, uint64(w), perW, size))
		for r := 0; r < perW; r++ {
			sums[w][r] = wire.Checksum64(servedPage(uint64(w), uint32(r), size))
		}
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var bg sync.WaitGroup
	// Deleter + compactor: every delete kills records in sealed
	// segments, every compaction relocates their live neighbours.
	bg.Add(1)
	go func() {
		defer bg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := uint64(rng.Intn(writes / 2)) // the upper half stays whole
			d.DeletePages(1, w, []uint32{uint32(rng.Intn(perW))})
			if _, err := d.CompactOnce(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Connection killers: fire a full-write read and hang up at once.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c, err := rpc.Dial(hostDialer{fab.Host("killer")}, "prov:rpc")
			if err != nil {
				t.Errorf("killer dial: %v", err)
				return
			}
			c.Go(ctx, MGetPages, [][]byte{reqs[i%writes]}, nil)
			if i%2 == 0 {
				time.Sleep(50 * time.Microsecond) // let the response get under way
			}
			c.Close()
		}
	}()

	var verified atomic.Int64
	var rd sync.WaitGroup
	for g := 0; g < readers; g++ {
		rd.Add(1)
		go func(g int) {
			defer rd.Done()
			pool := rpc.NewPool(hostDialer{fab.Host("reader")})
			defer pool.Close()
			dsts := make([][]byte, perW)
			for i := range dsts {
				dsts[i] = make([]byte, size)
			}
			status := make([]PageStatus, perW)
			for i := 0; i < calls; i++ {
				w := (g + i) % writes
				err := pool.CallWith(ctx, "prov:rpc", MGetPages, reqs[w], func(resp []byte) error {
					return DecodeGetPagesInto(resp, dsts, status)
				})
				if err != nil {
					t.Errorf("reader %d call %d: %v", g, i, err)
					return
				}
				for r, st := range status {
					switch {
					case st == PageOK && wire.Checksum64(dsts[r]) == sums[w][r]:
						verified.Add(1)
					case st == PageMissing && w < writes/2:
						// deleted under us
					default:
						t.Errorf("reader %d: page (%d,%d) status %d, checksum ok=%v",
							g, w, r, st, wire.Checksum64(dsts[r]) == sums[w][r])
						return
					}
				}
			}
		}(g)
	}
	rd.Wait()
	close(stop)
	bg.Wait()
	if verified.Load() < readers*calls*perW/2 {
		t.Errorf("only %d pages verified", verified.Load())
	}
}

func BenchmarkServeGetPages16(b *testing.B) {
	d, err := NewDiskStore(diskstore.Options{Dir: b.TempDir()}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	sv := NewService(d)
	body := EncodeGetPages(fillWrite(b, d, 2, 16, servePage))
	ctx := context.Background()
	b.SetBytes(16 * servePage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, held, err := sv.handleGetPages(ctx, body)
		if err != nil {
			b.Fatal(err)
		}
		releaseAll(held)
	}
}
