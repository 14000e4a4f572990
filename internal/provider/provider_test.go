package provider

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"

	"blob/internal/netsim"
	"blob/internal/rpc"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore(0)
	err := s.PutPages([]Page{
		{Blob: 1, Write: 10, RelPage: 0, Data: []byte("page zero")},
		{Blob: 1, Write: 10, RelPage: 1, Data: []byte("page one")},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := s.GetPage(1, 10, 1)
	if !ok || string(d) != "page one" {
		t.Errorf("GetPage = %q, %v", d, ok)
	}
	if _, ok := s.GetPage(1, 10, 2); ok {
		t.Error("absent page reported found")
	}
	if _, ok := s.GetPage(1, 11, 0); ok {
		t.Error("wrong write reported found")
	}
}

func TestPutIdempotent(t *testing.T) {
	s := NewStore(0)
	s.PutPages([]Page{{Blob: 1, Write: 1, RelPage: 0, Data: []byte("first")}})
	s.PutPages([]Page{{Blob: 1, Write: 1, RelPage: 0, Data: []byte("second")}})
	d, _ := s.GetPage(1, 1, 0)
	if string(d) != "first" {
		t.Errorf("page overwritten: %q", d)
	}
	if s.PageCount.Value() != 1 {
		t.Errorf("PageCount = %d, want 1", s.PageCount.Value())
	}
	if s.BytesUsed.Value() != 5 {
		t.Errorf("BytesUsed = %d, want 5", s.BytesUsed.Value())
	}
}

func TestCapacityEnforced(t *testing.T) {
	s := NewStore(100)
	if err := s.PutPages([]Page{{Blob: 1, Write: 1, RelPage: 0, Data: make([]byte, 60)}}); err != nil {
		t.Fatal(err)
	}
	err := s.PutPages([]Page{{Blob: 1, Write: 2, RelPage: 0, Data: make([]byte, 60)}})
	if !errors.Is(err, ErrFull) {
		t.Errorf("err = %v, want ErrFull", err)
	}
	// After freeing space the put must succeed.
	s.DeleteWrite(1, 1)
	if err := s.PutPages([]Page{{Blob: 1, Write: 2, RelPage: 0, Data: make([]byte, 60)}}); err != nil {
		t.Errorf("put after delete: %v", err)
	}
}

func TestDeleteWriteFreesAccounting(t *testing.T) {
	s := NewStore(0)
	s.PutPages([]Page{
		{Blob: 1, Write: 1, RelPage: 0, Data: make([]byte, 10)},
		{Blob: 1, Write: 1, RelPage: 1, Data: make([]byte, 20)},
		{Blob: 1, Write: 2, RelPage: 0, Data: make([]byte, 40)},
	})
	if n := s.DeleteWrite(1, 1); n != 2 {
		t.Errorf("DeleteWrite freed %d pages, want 2", n)
	}
	if s.BytesUsed.Value() != 40 {
		t.Errorf("BytesUsed = %d, want 40", s.BytesUsed.Value())
	}
	if n := s.DeleteWrite(1, 1); n != 0 {
		t.Errorf("second DeleteWrite freed %d, want 0", n)
	}
}

func TestPutDoesNotAliasCallerBuffer(t *testing.T) {
	s := NewStore(0)
	buf := []byte{1, 2, 3}
	s.PutPages([]Page{{Blob: 1, Write: 1, RelPage: 0, Data: buf}})
	buf[0] = 99
	d, _ := s.GetPage(1, 1, 0)
	if d[0] != 1 {
		t.Error("store aliases caller buffer")
	}
}

func TestConcurrentWritesDistinctWrites(t *testing.T) {
	s := NewStore(0)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pages := make([]Page, 32)
			for i := range pages {
				pages[i] = Page{Blob: 7, Write: uint64(w), RelPage: uint32(i), Data: []byte{byte(w), byte(i)}}
			}
			if err := s.PutPages(pages); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if got := s.PageCount.Value(); got != 16*32 {
		t.Fatalf("PageCount = %d, want %d", got, 16*32)
	}
	for w := 0; w < 16; w++ {
		for i := 0; i < 32; i++ {
			d, ok := s.GetPage(7, uint64(w), uint32(i))
			if !ok || d[0] != byte(w) || d[1] != byte(i) {
				t.Fatalf("page (%d,%d) = %v, %v", w, i, d, ok)
			}
		}
	}
}

type hostDialer struct{ h *netsim.Host }

func (d hostDialer) Dial(addr string) (net.Conn, error) { return d.h.Dial(addr) }

func startProvider(t testing.TB, fab *netsim.Net, name string, capacity int64) (*Store, string) {
	t.Helper()
	s := NewStore(capacity)
	srv := rpc.NewServer()
	NewService(s).RegisterHandlers(srv)
	l, err := fab.Host(name).Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	t.Cleanup(srv.Close)
	return s, name + ":rpc"
}

func TestRPCEndToEnd(t *testing.T) {
	fab := netsim.New(netsim.Fast())
	defer fab.Close()
	_, addr := startProvider(t, fab, "prov0", 0)
	pool := rpc.NewPool(hostDialer{fab.Host("cli")})
	defer pool.Close()
	ctx := context.Background()

	rels := []uint32{0, 1, 2}
	datas := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}
	if _, err := pool.Go(ctx, addr, MPutPages, EncodePutPagesVec(9, 77, rels, datas), nil).Wait(ctx); err != nil {
		t.Fatal(err)
	}

	refs := []PageRef{{9, 77, 0}, {9, 77, 2}, {9, 77, 5}}
	resp, err := pool.Call(ctx, addr, MGetPages, EncodeGetPages(refs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGetPages(resp, len(refs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], []byte("aa")) || !bytes.Equal(got[1], []byte("cc")) {
		t.Errorf("pages = %q, %q", got[0], got[1])
	}
	if got[2] != nil {
		t.Errorf("absent page = %q, want nil", got[2])
	}

	// Stats over RPC.
	sresp, err := pool.Call(ctx, addr, MStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeStats(sresp)
	if err != nil {
		t.Fatal(err)
	}
	if st.PageCount != 3 || st.BytesUsed != 6 {
		t.Errorf("stats = %+v", st)
	}

	// Delete over RPC.
	dresp, err := pool.Call(ctx, addr, MDeleteWrite, EncodeDeleteWrite(9, 77))
	if err != nil {
		t.Fatal(err)
	}
	_ = dresp
	if _, ok := getOverRPC(t, pool, addr, PageRef{9, 77, 0}); ok {
		t.Error("page survived DeleteWrite")
	}
}

func getOverRPC(t *testing.T, pool *rpc.Pool, addr string, ref PageRef) ([]byte, bool) {
	t.Helper()
	resp, err := pool.Call(context.Background(), addr, MGetPages, EncodeGetPages([]PageRef{ref}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGetPages(resp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return got[0], got[0] != nil
}

func TestRPCCapacityError(t *testing.T) {
	fab := netsim.New(netsim.Fast())
	defer fab.Close()
	_, addr := startProvider(t, fab, "tiny", 10)
	pool := rpc.NewPool(hostDialer{fab.Host("cli")})
	defer pool.Close()
	ctx := context.Background()
	_, err := pool.Go(ctx, addr, MPutPages, EncodePutPagesVec(1, 1, []uint32{0}, [][]byte{make([]byte, 100)}), nil).
		Wait(ctx)
	if err == nil || !rpc.IsServerError(err) {
		t.Fatalf("err = %v, want ServerError(capacity)", err)
	}
}

func BenchmarkPutGet64KPages(b *testing.B) {
	s := NewStore(0)
	page := make([]byte, 64<<10)
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := uint64(i)
		s.PutPages([]Page{{Blob: 1, Write: w, RelPage: 0, Data: page}})
		if _, ok := s.GetPage(1, w, 0); !ok {
			b.Fatal("missing page")
		}
	}
}

func BenchmarkGetPagesRPC(b *testing.B) {
	fab := netsim.New(netsim.Fast())
	defer fab.Close()
	_, addr := startProvider(b, fab, "prov0", 0)
	pool := rpc.NewPool(hostDialer{fab.Host("cli")})
	defer pool.Close()
	ctx := context.Background()
	page := make([]byte, 64<<10)
	rels := make([]uint32, 16)
	datas := make([][]byte, 16)
	for i := range rels {
		rels[i] = uint32(i)
		datas[i] = page
	}
	if _, err := pool.Go(ctx, addr, MPutPages, EncodePutPagesVec(1, 1, rels, datas), nil).Wait(ctx); err != nil {
		b.Fatal(err)
	}
	refs := make([]PageRef, 16)
	for i := range refs {
		refs[i] = PageRef{1, 1, uint32(i)}
	}
	req := EncodeGetPages(refs)
	b.SetBytes(int64(16 * len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := pool.Call(ctx, addr, MGetPages, req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeGetPages(resp, 16); err != nil {
			b.Fatal(err)
		}
	}
}
