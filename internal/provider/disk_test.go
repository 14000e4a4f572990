package provider

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"blob/internal/diskstore"
	"blob/internal/netsim"
	"blob/internal/rpc"
)

func newDisk(t *testing.T, dir string, capacity int64) *DiskStore {
	t.Helper()
	d, err := NewDiskStore(diskstore.Options{Dir: dir}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// backends returns one of each PageStore implementation, so shared
// contract tests run against both.
func backends(t *testing.T) map[string]PageStore {
	return map[string]PageStore{
		"ram":  NewStore(0),
		"disk": newDisk(t, t.TempDir(), 0),
	}
}

// writeCounts collects ForEachWrite into a map.
func writeCounts(s PageStore) map[WriteRef]int {
	m := make(map[WriteRef]int)
	s.ForEachWrite(func(blob, write uint64, pages int) { m[WriteRef{blob, write}] += pages })
	return m
}

func TestPageStoreContract(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if s.BloomDigest().MightContain(1, 10, 0) {
				t.Error("empty store digest claims a page")
			}
			if err := s.PutPages([]Page{
				{Blob: 1, Write: 10, RelPage: 0, Data: []byte("page zero")},
				{Blob: 1, Write: 10, RelPage: 1, Data: []byte("page one")},
				{Blob: 1, Write: 11, RelPage: 0, Data: []byte("other write")},
			}); err != nil {
				t.Fatal(err)
			}
			// Idempotent re-put: first wins.
			if err := s.PutPages([]Page{{Blob: 1, Write: 10, RelPage: 0, Data: []byte("overwrite")}}); err != nil {
				t.Fatal(err)
			}
			if d, ok := s.GetPage(1, 10, 0); !ok || string(d) != "page zero" {
				t.Errorf("GetPage = %q, %v", d, ok)
			}
			if _, ok := s.GetPage(1, 10, 9); ok {
				t.Error("absent page reported found")
			}
			// The pooled read serves the same bytes; only the disk owes a
			// buffer back.
			d, buf, ok := s.GetPagePooled(1, 10, 1)
			if !ok || string(d) != "page one" {
				t.Errorf("GetPagePooled = %q, %v", d, ok)
			}
			if _, ram := s.(*Store); ram != (buf == nil) {
				t.Errorf("GetPagePooled buf = %v on %s", buf, name)
			}
			if buf != nil {
				buf.Release()
			}
			if _, buf, ok := s.GetPagePooled(1, 10, 9); ok || buf != nil {
				t.Errorf("absent pooled page: ok %v, buf %v", ok, buf)
			}
			if got := writeCounts(s); len(got) != 2 || got[WriteRef{1, 10}] != 2 || got[WriteRef{1, 11}] != 1 {
				t.Errorf("ForEachWrite = %v", got)
			}
			dig := s.BloomDigest()
			for _, p := range []PageRef{{1, 10, 0}, {1, 10, 1}, {1, 11, 0}} {
				if !dig.MightContain(p.Blob, p.Write, p.RelPage) {
					t.Errorf("digest false negative for held page %v", p)
				}
			}
			if n := s.DeletePages(1, 10, []uint32{1, 9}); n != 1 {
				t.Errorf("DeletePages = %d, want 1", n)
			}
			if _, ok := s.GetPage(1, 10, 1); ok {
				t.Error("deleted page still served")
			}
			if n := s.DeleteWrite(1, 11); n != 1 {
				t.Errorf("DeleteWrite = %d, want 1", n)
			}
			st := s.Snapshot()
			if st.PageCount != 1 || st.BytesUsed != int64(len("page zero")) {
				t.Errorf("snapshot = %+v", st)
			}
			seen := 0
			s.ForEachPage(func(blob, write uint64, rel uint32, data []byte) { seen++ })
			if seen != 1 {
				t.Errorf("ForEachPage visited %d pages, want 1", seen)
			}
			if got := writeCounts(s); len(got) != 1 || got[WriteRef{1, 10}] != 1 {
				t.Errorf("ForEachWrite after deletes = %v", got)
			}
		})
	}
}

func TestDiskStoreCapacity(t *testing.T) {
	d := newDisk(t, t.TempDir(), 100)
	if err := d.PutPages([]Page{{Blob: 1, Write: 1, RelPage: 0, Data: make([]byte, 60)}}); err != nil {
		t.Fatal(err)
	}
	err := d.PutPages([]Page{{Blob: 1, Write: 2, RelPage: 0, Data: make([]byte, 60)}})
	if !errors.Is(err, ErrFull) {
		t.Errorf("err = %v, want ErrFull", err)
	}
	d.DeleteWrite(1, 1)
	if err := d.PutPages([]Page{{Blob: 1, Write: 2, RelPage: 0, Data: make([]byte, 60)}}); err != nil {
		t.Errorf("put after delete: %v", err)
	}
}

func TestDiskStoreStatsFields(t *testing.T) {
	d := newDisk(t, t.TempDir(), 0)
	if err := d.PutPages([]Page{{Blob: 1, Write: 1, RelPage: 0, Data: make([]byte, 100)}}); err != nil {
		t.Fatal(err)
	}
	st := d.Snapshot()
	if st.DiskBytes == 0 || st.Segments == 0 || st.DiskLive == 0 {
		t.Errorf("disk stats empty: %+v", st)
	}
	if r := st.LiveRatio(); r != 1 {
		t.Errorf("live ratio of fresh store = %v, want 1", r)
	}
	d.DeleteWrite(1, 1)
	if r := d.Snapshot().LiveRatio(); r >= 1 {
		t.Errorf("live ratio after delete = %v, want < 1", r)
	}
}

// TestServiceOverDiskBackend runs the RPC surface against a persistent
// backend, then restarts it over the same directory and reads back.
func TestServiceOverDiskBackend(t *testing.T) {
	dir := t.TempDir()
	fab := netsim.New(netsim.Fast())
	defer fab.Close()
	pool := rpc.NewPool(hostDialer{fab.Host("cli")})
	defer pool.Close()
	ctx := context.Background()

	start := func(name string) (*rpc.Server, string, *DiskStore) {
		d, err := NewDiskStore(diskstore.Options{Dir: dir}, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		NewService(d).RegisterHandlers(srv)
		l, err := fab.Host(name).Listen("rpc")
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(l)
		t.Cleanup(func() { srv.Close(); d.Close() })
		return srv, name + ":rpc", d
	}

	srv, addr, d := start("prov0")
	rels := []uint32{0, 1}
	datas := [][]byte{[]byte("persist me"), []byte("and me")}
	if _, err := pool.Go(ctx, addr, MPutPages, EncodePutPagesVec(4, 44, rels, datas)).Wait(ctx); err != nil {
		t.Fatal(err)
	}
	sresp, err := pool.Call(ctx, addr, MStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeStats(sresp)
	if err != nil {
		t.Fatal(err)
	}
	if st.PageCount != 2 || st.DiskBytes == 0 || st.Segments == 0 {
		t.Errorf("stats over RPC = %+v", st)
	}

	// Crash the node, relaunch over the same directory, read back.
	srv.Close()
	d.Close()
	_, addr2, _ := start("prov1")
	resp, err := pool.Call(ctx, addr2, MGetPages, EncodeGetPages([]PageRef{{4, 44, 0}, {4, 44, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGetPages(resp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], datas[0]) || !bytes.Equal(got[1], datas[1]) {
		t.Errorf("after restart: %q, %q", got[0], got[1])
	}
}
