package provider

// Tests for the zero-copy codecs: payload aliasing, status semantics of
// DecodeGetPagesInto, and the allocation regression gates the hot path
// is held to.

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"testing"

	"blob/internal/netsim"
	"blob/internal/rpc"
)

// joinSegs flattens scatter-gather segments into the body a peer reads.
func joinSegs(segs [][]byte) []byte {
	var out []byte
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

// TestEncodePutPagesVecAliases pins the zero-copy property itself: the
// payload segments must alias the caller's buffers, not copies.
func TestEncodePutPagesVecAliases(t *testing.T) {
	data := []byte("the page payload")
	segs := EncodePutPagesVec(1, 2, []uint32{0}, [][]byte{data})
	found := false
	for _, s := range segs {
		if len(s) == len(data) && &s[0] == &data[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("no segment aliases the caller's page buffer")
	}
}

// TestDecodeGetPagesInto covers present, absent and wrong-size pages
// against the service's vectored encoder.
func TestDecodeGetPagesInto(t *testing.T) {
	st := NewStore(0)
	pageA := bytes.Repeat([]byte{0xAA}, 512)
	pageB := bytes.Repeat([]byte{0xBB}, 512)
	short := bytes.Repeat([]byte{0xCC}, 100)
	put := func(rel uint32, d []byte) {
		if err := st.PutPages([]Page{{Blob: 1, Write: 2, RelPage: rel, Data: d}}); err != nil {
			t.Fatal(err)
		}
	}
	put(0, pageA)
	put(1, pageB)
	put(3, short) // wrong size for a 512-byte destination

	sv := NewService(st)
	refs := []PageRef{
		{Blob: 1, Write: 2, RelPage: 0},
		{Blob: 1, Write: 2, RelPage: 1},
		{Blob: 1, Write: 2, RelPage: 2}, // absent
		{Blob: 1, Write: 2, RelPage: 3},
	}
	segs, _, err := sv.handleGetPages(context.Background(), EncodeGetPages(refs))
	if err != nil {
		t.Fatal(err)
	}
	body := joinSegs(segs)

	dsts := make([][]byte, len(refs))
	for i := range dsts {
		dsts[i] = make([]byte, 512)
	}
	status := make([]PageStatus, len(refs))
	if err := DecodeGetPagesInto(body, dsts, status); err != nil {
		t.Fatal(err)
	}
	want := []PageStatus{PageOK, PageOK, PageMissing, PageBad}
	for i, st := range status {
		if st != want[i] {
			t.Errorf("status[%d] = %d, want %d", i, st, want[i])
		}
	}
	if !bytes.Equal(dsts[0], pageA) || !bytes.Equal(dsts[1], pageB) {
		t.Error("destination bytes differ from stored pages")
	}

	// The copying decoder (repair paths) must agree on the same body.
	datas, err := DecodeGetPages(body, len(refs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datas[0], pageA) || !bytes.Equal(datas[1], pageB) ||
		datas[2] != nil || !bytes.Equal(datas[3], short) {
		t.Error("DecodeGetPages of the same response differs")
	}
}

// TestEncodePutPagesVecAllocs is the allocation gate on the write-side
// codec: one header arena plus one segment list, independent of page
// count or payload size.
func TestEncodePutPagesVecAllocs(t *testing.T) {
	const npages = 64
	rels := make([]uint32, npages)
	datas := make([][]byte, npages)
	page := make([]byte, 4096)
	for i := range rels {
		rels[i] = uint32(i)
		datas[i] = page
	}
	avg := testing.AllocsPerRun(100, func() {
		EncodePutPagesVec(7, 8, rels, datas)
	})
	if avg > 2 {
		t.Fatalf("EncodePutPagesVec: %.1f allocs/op, want <= 2", avg)
	}
}

// TestDecodeGetPagesIntoAllocs is the allocation gate on the read-side
// codec: zero allocations — pages land straight in caller memory.
func TestDecodeGetPagesIntoAllocs(t *testing.T) {
	st := NewStore(0)
	const npages = 64
	refs := make([]PageRef, npages)
	for i := range refs {
		refs[i] = PageRef{Blob: 1, Write: 2, RelPage: uint32(i)}
		if err := st.PutPages([]Page{{Blob: 1, Write: 2, RelPage: uint32(i), Data: make([]byte, 4096)}}); err != nil {
			t.Fatal(err)
		}
	}
	sv := NewService(st)
	segs, _, err := sv.handleGetPages(context.Background(), EncodeGetPages(refs))
	if err != nil {
		t.Fatal(err)
	}
	body := joinSegs(segs)
	dsts := make([][]byte, npages)
	for i := range dsts {
		dsts[i] = make([]byte, 4096)
	}
	status := make([]PageStatus, npages)
	avg := testing.AllocsPerRun(100, func() {
		if err := DecodeGetPagesInto(body, dsts, status); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("DecodeGetPagesInto: %.1f allocs/op, want 0", avg)
	}
}

// TestHandleGetPagesVecAllocs bounds the provider-side serve path: the
// response is assembled from one arena, one segment list and the
// store's own page memory — no per-page payload copies.
func TestHandleGetPagesVecAllocs(t *testing.T) {
	st := NewStore(0)
	const npages = 64
	refs := make([]PageRef, npages)
	for i := range refs {
		refs[i] = PageRef{Blob: 1, Write: 2, RelPage: uint32(i)}
		if err := st.PutPages([]Page{{Blob: 1, Write: 2, RelPage: uint32(i), Data: make([]byte, 4096)}}); err != nil {
			t.Fatal(err)
		}
	}
	sv := NewService(st)
	body := EncodeGetPages(refs)
	ctx := context.Background()
	avg := testing.AllocsPerRun(100, func() {
		if _, _, err := sv.handleGetPages(ctx, body); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 4 {
		t.Fatalf("handleGetPages: %.1f allocs/op, want <= 4", avg)
	}
}

// newPagesInto returns a sink for n pages of size bytes each.
func newPagesInto(n, size int) *PagesInto {
	p := &PagesInto{Dsts: make([][]byte, n), Status: make([]PageStatus, n)}
	for i := range p.Dsts {
		p.Dsts[i] = make([]byte, size)
	}
	return p
}

// TestGetPagesIntoDrawsNoResponseBuf is the client half of the garbage
// gate: PagesInto reads a 16 × 64 KiB MGetPages answer off the
// connection straight into the caller's dsts. With the buffer pools
// emptied before every fetch — so that a response rpc.Buf would be a
// fresh allocation — a fetch allocates less than one page beyond the
// netsim fabric's own copy of the frames in transit.
func TestGetPagesIntoDrawsNoResponseBuf(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not representative under the race detector")
	}
	fab := netsim.New(netsim.Fast())
	defer fab.Close()
	st := NewStore(0)
	refs := fillWrite(t, st, 2, 16, servePage)
	srv := rpc.NewServer()
	NewService(st).RegisterHandlers(srv)
	l, err := fab.Host("prov").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	defer srv.Close()
	pool := rpc.NewPool(fab.Host("reader"))
	defer pool.Close()

	req := [][]byte{EncodeGetPages(refs)}
	sink := newPagesInto(len(refs), servePage)
	ctx := context.Background()
	fetch := func() {
		if _, err := pool.Go(ctx, "prov:rpc", MGetPages, req, sink).Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	fetch() // dials
	for i, st := range sink.Status {
		if st != PageOK || !bytes.Equal(sink.Dsts[i], servedPage(2, uint32(i), servePage)) {
			t.Fatalf("page %d: status %d or wrong bytes", i, st)
		}
	}
	// netsim coalesces each frame into one owned buffer in transit: the
	// answer's 16 pages with their headers, and the request.
	const inTransit = 16*servePage + 16<<10
	least := uint64(1 << 62)
	for run := 0; run < 5; run++ {
		runtime.GC()
		runtime.GC() // a sync.Pool keeps its buffers through one GC
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fetch()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a 16-page fetch allocates %d bytes, up to %d of them in transit", least, inTransit)
	if least >= inTransit+servePage {
		t.Errorf("a 16-page fetch allocates %d bytes, %d beyond the frames in transit: a response buffer is back",
			least, least-inTransit)
	}
}

// BenchmarkGetPages1MiB is one provider's share of a cutout-read in one
// process: 16 × 64 KiB pages served from a RAM store over loopback TCP
// and read by PagesInto straight into the caller's dsts.
func BenchmarkGetPages1MiB(b *testing.B) {
	st := NewStore(0)
	refs := fillWrite(b, st, 2, 16, servePage)
	srv := rpc.NewServer()
	NewService(st).RegisterHandlers(srv)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv.Start(l)
	defer srv.Close()
	pool := rpc.NewPool(rpc.TCP{})
	defer pool.Close()
	req := [][]byte{EncodeGetPages(refs)}
	sink := newPagesInto(len(refs), servePage)
	ctx := context.Background()
	b.SetBytes(16 * servePage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Go(ctx, l.Addr().String(), MGetPages, req, sink).Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
