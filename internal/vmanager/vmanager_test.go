package vmanager

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/wire"
)

const (
	pageSize = 64 << 10
	capBytes = 64 * pageSize // 64 pages
)

// newLone boots a one-peer replica, the shape a bare `blobnode -roles
// vmanager` runs: it needs no follower acks, so every mutation takes the
// production propose path without a network.
func newLone(t testing.TB, cfg Config) *Replica {
	t.Helper()
	r, err := NewReplica(ReplicaConfig{Peers: []string{"lone"}, Manager: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func newBlob(t testing.TB, r *Replica) uint64 {
	t.Helper()
	id, err := r.CreateBlob(context.Background(), pageSize, capBytes, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestCreateBlobValidation(t *testing.T) {
	r := newLone(t, Config{})
	ctx := context.Background()
	if _, err := r.CreateBlob(ctx, 1000, 64000, erasure.Redundancy{}); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	if _, err := r.CreateBlob(ctx, 1024, 1000, erasure.Redundancy{}); err == nil {
		t.Error("capacity not multiple of page size accepted")
	}
	if _, err := r.CreateBlob(ctx, 1024, 3*1024, erasure.Redundancy{}); err == nil {
		t.Error("non-power-of-two page count accepted")
	}
	id1, err := r.CreateBlob(ctx, 1024, 4*1024, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := r.CreateBlob(ctx, 1024, 4*1024, erasure.Redundancy{})
	if id1 == id2 {
		t.Error("blob IDs not unique")
	}
}

func TestAssignCommitPublish(t *testing.T) {
	r := newLone(t, Config{})
	m := r.Manager()
	blob := newBlob(t, r)
	ctx := context.Background()

	a, err := r.AssignVersion(ctx, blob, 100, 0, 4*pageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != 1 || a.Offset != 0 {
		t.Fatalf("assignment = %+v", a)
	}
	// Not yet published.
	if v, _, _ := m.Latest(blob); v != 0 {
		t.Errorf("latest before commit = %d", v)
	}
	pub, err := r.Commit(ctx, blob, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if pub != 1 {
		t.Errorf("published = %d, want 1", pub)
	}
	v, size, err := m.Latest(blob)
	if err != nil || v != 1 || size != 4*pageSize {
		t.Errorf("latest = v%d size %d err %v", v, size, err)
	}
}

func TestPublicationOrder(t *testing.T) {
	r := newLone(t, Config{})
	m := r.Manager()
	blob := newBlob(t, r)
	ctx := context.Background()

	a1, _ := r.AssignVersion(ctx, blob, 1, 0, pageSize, false)
	a2, _ := r.AssignVersion(ctx, blob, 2, pageSize, pageSize, false)
	a3, _ := r.AssignVersion(ctx, blob, 3, 2*pageSize, pageSize, false)
	if a1.Version != 1 || a2.Version != 2 || a3.Version != 3 {
		t.Fatal("versions not sequential")
	}

	// Commit out of order: 3, then 2, then 1.
	if _, err := r.Commit(ctx, blob, 3, false); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := m.Latest(blob); v != 0 {
		t.Errorf("latest after commit(3) = %d, want 0", v)
	}
	if _, err := r.Commit(ctx, blob, 2, false); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := m.Latest(blob); v != 0 {
		t.Errorf("latest after commit(3,2) = %d, want 0", v)
	}
	if _, err := r.Commit(ctx, blob, 1, false); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := m.Latest(blob); v != 3 {
		t.Errorf("latest after commit(3,2,1) = %d, want 3", v)
	}
}

func TestBlockingCommitWaitsForPredecessors(t *testing.T) {
	r := newLone(t, Config{})
	blob := newBlob(t, r)
	ctx := context.Background()

	r.AssignVersion(ctx, blob, 1, 0, pageSize, false)
	r.AssignVersion(ctx, blob, 2, 0, pageSize, false)

	done := make(chan meta.Version, 1)
	go func() {
		pub, err := r.Commit(ctx, blob, 2, true)
		if err != nil {
			t.Error(err)
		}
		done <- pub
	}()
	select {
	case <-done:
		t.Fatal("commit(2) returned before commit(1)")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := r.Commit(ctx, blob, 1, true); err != nil {
		t.Fatal(err)
	}
	select {
	case pub := <-done:
		if pub != 2 {
			t.Errorf("published = %d, want 2", pub)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked commit never released")
	}
}

func TestBordersReflectUnpublishedWrites(t *testing.T) {
	// The defining lock-free property: writer 2's borders must reference
	// version 1 even though version 1 has not committed yet.
	r := newLone(t, Config{})
	blob := newBlob(t, r)
	ctx := context.Background()

	r.AssignVersion(ctx, blob, 1, 0, 8*pageSize, false) // v1 uncommitted
	a2, err := r.AssignVersion(ctx, blob, 2, 4*pageSize, 4*pageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range a2.Borders {
		if b.Child == (meta.NodeRange{Start: 0, Size: 4}) {
			found = true
			if b.Ver != 1 {
				t.Errorf("border (0,4) = v%d, want v1 (unpublished)", b.Ver)
			}
		}
	}
	if !found {
		t.Fatalf("border (0,4) missing from %+v", a2.Borders)
	}
}

func TestAppendResolvesOffset(t *testing.T) {
	r := newLone(t, Config{})
	blob := newBlob(t, r)
	ctx := context.Background()

	a1, err := r.AssignVersion(ctx, blob, 1, 0, 2*pageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Offset != 0 {
		t.Errorf("first append offset = %d", a1.Offset)
	}
	// Second append must land after the first even before it commits.
	a2, err := r.AssignVersion(ctx, blob, 2, 0, 3*pageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Offset != 2*pageSize {
		t.Errorf("second append offset = %d, want %d", a2.Offset, 2*pageSize)
	}
	r.Commit(ctx, blob, 1, false)
	r.Commit(ctx, blob, 2, false)
	_, size, _ := r.Manager().Latest(blob)
	if size != 5*pageSize {
		t.Errorf("size = %d, want %d", size, 5*pageSize)
	}
}

func TestAssignValidation(t *testing.T) {
	r := newLone(t, Config{})
	blob := newBlob(t, r)
	ctx := context.Background()
	if _, err := r.AssignVersion(ctx, blob, 1, 13, pageSize, false); !errors.Is(err, ErrBadRange) {
		t.Errorf("unaligned offset: %v", err)
	}
	if _, err := r.AssignVersion(ctx, blob, 1, 0, 0, false); !errors.Is(err, ErrBadRange) {
		t.Errorf("zero length: %v", err)
	}
	if _, err := r.AssignVersion(ctx, blob, 1, 0, capBytes+pageSize, false); !errors.Is(err, ErrBadRange) {
		t.Errorf("overflow: %v", err)
	}
	if _, err := r.AssignVersion(ctx, 999, 1, 0, pageSize, false); !errors.Is(err, ErrNoBlob) {
		t.Errorf("unknown blob: %v", err)
	}
}

func TestVersionInfoAndSizes(t *testing.T) {
	r := newLone(t, Config{})
	m := r.Manager()
	blob := newBlob(t, r)
	ctx := context.Background()
	r.AssignVersion(ctx, blob, 1, 0, 2*pageSize, false)
	r.AssignVersion(ctx, blob, 2, 8*pageSize, 2*pageSize, false)
	r.Commit(ctx, blob, 1, false)

	pub, size, err := m.VersionInfo(blob, 1)
	if err != nil || !pub || size != 2*pageSize {
		t.Errorf("v1 info = %v %d %v", pub, size, err)
	}
	pub, size, err = m.VersionInfo(blob, 2)
	if err != nil || pub || size != 10*pageSize {
		t.Errorf("v2 info = %v %d %v (should be unpublished, size 10 pages)", pub, size, err)
	}
	if _, _, err := m.VersionInfo(blob, 9); !errors.Is(err, ErrVersionUnknown) {
		t.Errorf("unknown version: %v", err)
	}
}

func TestHistoryFilter(t *testing.T) {
	r := newLone(t, Config{})
	blob := newBlob(t, r)
	for i := 0; i < 5; i++ {
		r.AssignVersion(context.Background(), blob, uint64(i+1), uint64(i)*pageSize, pageSize, false)
	}
	recs, err := r.Manager().History(blob, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Version != 2 || recs[1].Version != 3 {
		t.Errorf("history (1,3] = %+v", recs)
	}
}

func TestConcurrentWritersSerialize(t *testing.T) {
	r := newLone(t, Config{})
	blob := newBlob(t, r)
	ctx := context.Background()

	const writers = 16
	var wg sync.WaitGroup
	versions := make([]meta.Version, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := r.AssignVersion(ctx, blob, uint64(i+1), uint64(i%8)*pageSize, pageSize, false)
			if err != nil {
				t.Error(err)
				return
			}
			versions[i] = a.Version
			if _, err := r.Commit(ctx, blob, a.Version, true); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	seen := map[meta.Version]bool{}
	for _, v := range versions {
		if v == 0 || seen[v] {
			t.Fatalf("duplicate or zero version %d in %v", v, versions)
		}
		seen[v] = true
	}
	if v, _, _ := r.Manager().Latest(blob); v != writers {
		t.Errorf("latest = %d, want %d", v, writers)
	}
}

func TestCommitUnknownVersion(t *testing.T) {
	r := newLone(t, Config{})
	blob := newBlob(t, r)
	if _, err := r.Commit(context.Background(), blob, 7, false); !errors.Is(err, ErrNotPending) {
		t.Errorf("err = %v, want ErrNotPending", err)
	}
}

func TestCommitIdempotentAfterPublish(t *testing.T) {
	r := newLone(t, Config{})
	blob := newBlob(t, r)
	ctx := context.Background()
	a, _ := r.AssignVersion(ctx, blob, 1, 0, pageSize, false)
	if _, err := r.Commit(ctx, blob, a.Version, true); err != nil {
		t.Fatal(err)
	}
	logLen := r.Status().LogLen
	// A duplicate commit (client retry after lost response) succeeds,
	// and logs nothing.
	pub, err := r.Commit(ctx, blob, a.Version, true)
	if err != nil || pub < 1 {
		t.Errorf("duplicate commit = %d, %v", pub, err)
	}
	if got := r.Status().LogLen; got != logLen {
		t.Errorf("duplicate commit grew the log from %d to %d records", logLen, got)
	}
}

// fakeStore is an in-memory NodeStore for repair tests. Like the real
// one it stores packed blocks, first put wins: whichever of a dead
// writer and its repairer stores a block first owns all of it.
type fakeStore struct {
	mu     sync.Mutex
	blocks map[meta.BlockKey][]byte
}

func newFakeStore() *fakeStore {
	return &fakeStore{blocks: make(map[meta.BlockKey][]byte)}
}

func (f *fakeStore) FetchNode(_ context.Context, key meta.NodeKey) (*meta.Node, error) {
	f.mu.Lock()
	body, ok := f.blocks[key.Block()]
	f.mu.Unlock()
	if ok {
		nodes, err := meta.DecodeBlock(body, key.Block())
		if err != nil {
			return nil, err
		}
		for i := range nodes {
			if nodes[i].Key == key {
				return &nodes[i], nil
			}
		}
	}
	return nil, fmt.Errorf("fakeStore: missing %+v", key)
}

func (f *fakeStore) StoreNodes(_ context.Context, nodes []meta.Node) error {
	byBlock := make(map[meta.BlockKey][]meta.Node)
	for _, n := range nodes {
		byBlock[n.Key.Block()] = append(byBlock[n.Key.Block()], n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, ns := range byBlock {
		if _, dup := f.blocks[k]; !dup { // write-once
			w := wire.NewWriter(64 * len(ns))
			meta.EncodeBlock(w, k, ns)
			f.blocks[k] = w.Bytes()
		}
	}
	return nil
}

func (f *fakeStore) storeBuilt(t *testing.T, blob uint64, a Assignment, wr meta.PageRange, writeID uint64) {
	t.Helper()
	nodes, err := meta.Build(blob, a.Version, capBytes/pageSize, wr,
		meta.BorderResolver(a.Borders),
		func(p uint64) (meta.LeafData, error) {
			return meta.LeafData{Write: writeID, RelPage: uint32(p - wr.First)}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StoreNodes(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
}

func TestRepairUnblocksSuccessors(t *testing.T) {
	store := newFakeStore()
	r := newLone(t, Config{RepairTimeout: 50 * time.Millisecond, Store: store})
	m := r.Manager()
	blob := newBlob(t, r)
	ctx := context.Background()

	// v1 writes pages [0,4) and commits properly.
	a1, _ := r.AssignVersion(ctx, blob, 11, 0, 4*pageSize, false)
	store.storeBuilt(t, blob, a1, meta.PageRange{First: 0, Count: 4}, 11)
	if _, err := r.Commit(ctx, blob, a1.Version, true); err != nil {
		t.Fatal(err)
	}

	// v2 is assigned pages [2,4)... and the writer dies silently.
	a2, _ := r.AssignVersion(ctx, blob, 22, 2*pageSize, 2*pageSize, false)

	// v3 writes pages [0,2) and commits; publication must eventually
	// advance past the dead v2 thanks to repair.
	a3, _ := r.AssignVersion(ctx, blob, 33, 0, 2*pageSize, false)
	store.storeBuilt(t, blob, a3, meta.PageRange{First: 0, Count: 2}, 33)
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	pub, err := r.Commit(cctx, blob, a3.Version, true)
	if err != nil {
		t.Fatalf("commit(v3) failed: %v", err)
	}
	if pub < 3 {
		t.Errorf("published = %d, want >= 3", pub)
	}
	if m.Repairs.Value() != 1 {
		t.Errorf("repairs = %d, want 1", m.Repairs.Value())
	}

	// The repaired v2 leaves must reference v1's pages (no-op patch).
	for page := uint64(2); page < 4; page++ {
		n, err := store.FetchNode(ctx, meta.NodeKey{
			Blob: blob, Version: 2, Range: meta.NodeRange{Start: page, Size: 1},
		})
		if err != nil {
			t.Fatalf("repaired leaf missing: %v", err)
		}
		if n.Leaf.Write != 11 {
			t.Errorf("repaired leaf page %d references write %d, want 11", page, n.Leaf.Write)
		}
	}

	// The dead writer's late commit must be rejected.
	if _, err := r.Commit(ctx, blob, a2.Version, false); !errors.Is(err, ErrAborted) {
		t.Errorf("late commit of repaired version = %v, want ErrAborted", err)
	}

	// History must mark v2 aborted.
	recs, _ := m.History(blob, 0, 10)
	for _, rec := range recs {
		if rec.Version == 2 && !rec.Aborted {
			t.Error("v2 not marked aborted in history")
		}
	}
}

func TestRepairZeroPages(t *testing.T) {
	// Dead writer on a fresh blob: repair must produce zero-page leaves.
	store := newFakeStore()
	r := newLone(t, Config{RepairTimeout: 30 * time.Millisecond, Store: store})
	blob := newBlob(t, r)
	ctx := context.Background()

	r.AssignVersion(ctx, blob, 11, 0, 2*pageSize, false) // writer dies

	a2, _ := r.AssignVersion(ctx, blob, 22, 4*pageSize, 2*pageSize, false)
	store.storeBuilt(t, blob, a2, meta.PageRange{First: 4, Count: 2}, 22)
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := r.Commit(cctx, blob, a2.Version, true); err != nil {
		t.Fatal(err)
	}
	n, err := store.FetchNode(ctx, meta.NodeKey{Blob: blob, Version: 1, Range: meta.NodeRange{Start: 0, Size: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if n.Leaf.Write != 0 {
		t.Errorf("repaired fresh-blob leaf = write %d, want 0 (zero page)", n.Leaf.Write)
	}
}

func TestExplicitAbortRepairs(t *testing.T) {
	store := newFakeStore()
	r := newLone(t, Config{RepairTimeout: time.Hour, Store: store})
	blob := newBlob(t, r)
	ctx := context.Background()

	a1, _ := r.AssignVersion(ctx, blob, 11, 0, 2*pageSize, false)
	if err := r.Abort(ctx, blob, a1.Version); err != nil {
		t.Fatal(err)
	}
	// Abort repaired synchronously: v1 should be published as a no-op.
	if v, _, _ := r.Manager().Latest(blob); v != 1 {
		t.Errorf("latest after abort = %d, want 1", v)
	}
	if _, err := r.Commit(ctx, blob, a1.Version, false); !errors.Is(err, ErrAborted) {
		t.Errorf("commit after abort = %v, want ErrAborted", err)
	}
}

func BenchmarkAssignVersion(b *testing.B) {
	r := newLone(b, Config{})
	ctx := context.Background()
	blob, _ := r.CreateBlob(ctx, 64<<10, 1<<40, erasure.Redundancy{}) // 1 TB
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%1000) * 128 * (64 << 10)
		a, err := r.AssignVersion(ctx, blob, uint64(i), off, 128*(64<<10), false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Commit(ctx, blob, a.Version, false); err != nil {
			b.Fatal(err)
		}
	}
}
