package gc_test

import (
	"bytes"
	"context"
	"testing"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/erasure"
	"blob/internal/gc"
	"blob/internal/meta"
)

const pageSize = 4 << 10

func launch(t *testing.T, cfg cluster.Config) (*cluster.Cluster, *core.Client) {
	t.Helper()
	cl, err := cluster.Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Shutdown)
	c, err := cl.NewClient(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return cl, c
}

func pattern(seed byte, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = seed + byte(i*13)
	}
	return buf
}

func TestCollectFullySupersededVersion(t *testing.T) {
	// CacheNodes: 0 — the GC must observe real deletions, and reads
	// afterwards must hit the providers, not a stale client cache.
	cl, c := launch(t, cluster.Config{CacheNodes: 0})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)

	d1 := pattern(1, 4*pageSize)
	d2 := pattern(2, 4*pageSize)
	d3 := pattern(3, 4*pageSize)
	if _, err := b.Write(ctx, d1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, d2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, d3, 0); err != nil {
		t.Fatal(err)
	}

	pagesBefore := cl.TotalDataPages()
	blocksBefore := cl.TotalMetaBlocks()

	rep, err := gc.New(c).Collect(ctx, b.ID(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VersionsCollected != 2 {
		t.Errorf("versions collected = %d, want 2", rep.VersionsCollected)
	}
	// v1 and v2 are fully superseded by v3 on the same range: all their
	// pages die (4 each), and all their nodes die.
	if rep.PagesDeleted != 8 {
		t.Errorf("pages deleted = %d, want 8", rep.PagesDeleted)
	}
	if cl.TotalDataPages() != pagesBefore-8 {
		t.Errorf("provider pages %d -> %d, want -8", pagesBefore, cl.TotalDataPages())
	}
	if cl.TotalMetaBlocks() >= blocksBefore {
		t.Errorf("stored metadata did not shrink: %d -> %d blocks", blocksBefore, cl.TotalMetaBlocks())
	}

	// v3 must remain perfectly readable.
	got := make([]byte, 4*pageSize)
	if _, err := b.Read(ctx, got, 0, 3); err != nil {
		t.Fatalf("read v3 after GC: %v", err)
	}
	if !bytes.Equal(got, d3) {
		t.Fatal("v3 corrupted by GC")
	}

	// Collected versions fail.
	if _, err := b.Read(ctx, got, 0, 1); err == nil {
		t.Error("read of collected v1 succeeded")
	}
}

func TestCollectKeepsSharedPages(t *testing.T) {
	cl, c := launch(t, cluster.Config{CacheNodes: 0})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)

	base := pattern(1, 8*pageSize) // v1: pages [0,8)
	if _, err := b.Write(ctx, base, 0); err != nil {
		t.Fatal(err)
	}
	patch := pattern(2, 2*pageSize) // v2: pages [2,4)
	if _, err := b.Write(ctx, patch, 2*pageSize); err != nil {
		t.Fatal(err)
	}

	pagesBefore := cl.TotalDataPages() // 8 + 2

	rep, err := gc.New(c).Collect(ctx, b.ID(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Only v1's pages [2,4) are superseded; the other six stay live.
	if rep.PagesDeleted != 2 {
		t.Errorf("pages deleted = %d, want 2", rep.PagesDeleted)
	}
	if got := cl.TotalDataPages(); got != pagesBefore-2 {
		t.Errorf("pages %d -> %d, want -2", pagesBefore, got)
	}

	// v2's full view: base with patch, still readable through v1's
	// surviving pages.
	want := append([]byte(nil), base...)
	copy(want[2*pageSize:], patch)
	got := make([]byte, 8*pageSize)
	if _, err := b.Read(ctx, got, 0, 2); err != nil {
		t.Fatalf("read v2 after GC: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("v2 content corrupted by GC")
	}
}

// blockNodes returns, for one write of a blob, the node ranges it
// created grouped by the stored block they share.
func blockNodes(totalPages uint64, wr meta.PageRange) map[meta.NodeRange][]meta.NodeRange {
	out := map[meta.NodeRange][]meta.NodeRange{}
	for _, r := range meta.WriteSet(totalPages, wr) {
		out[r.Block()] = append(out[r.Block()], r)
	}
	return out
}

// TestCollectKeepsBlockWithAnyMarkedNode: blocks are swept whole. v1
// writes pages [0,4) and v2 overwrites only page 0, so of v1's nodes v2
// still references leaves 1..3 and the interior node over [2,4); leaf 0
// and the path above it were rebuilt by v2 and are unmarked. Every v1
// block holding a marked node must survive whole — at least one of them
// also holds unmarked nodes — every other must die, the report must
// count nodes accordingly, and v2 must read byte-identically.
func TestCollectKeepsBlockWithAnyMarkedNode(t *testing.T) {
	cl, c := launch(t, cluster.Config{CacheNodes: 0})
	ctx := context.Background()
	const totalPages = 16
	b, _ := c.CreateBlob(ctx, pageSize, totalPages*pageSize)
	base := pattern(1, 4*pageSize)
	patch := pattern(2, pageSize)
	if _, err := b.Write(ctx, base, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, patch, 0); err != nil {
		t.Fatal(err)
	}
	v1 := blockNodes(totalPages, meta.PageRange{First: 0, Count: 4})
	live := map[meta.NodeRange]int{} // v1 block → marked nodes in it
	for _, r := range []meta.NodeRange{{Start: 1, Size: 1}, {Start: 2, Size: 2}, {Start: 2, Size: 1}, {Start: 3, Size: 1}} {
		live[r.Block()]++
	}
	wantKept, wantDeleted, mixed := 0, 0, false
	for blk, nodes := range v1 {
		if live[blk] == 0 {
			wantDeleted += len(nodes)
			continue
		}
		wantKept += len(nodes)
		mixed = mixed || live[blk] < len(nodes)
	}
	if !mixed || wantDeleted == 0 {
		t.Fatalf("test bug: scenario has no mixed block (%v) or no dead block", mixed)
	}
	blocksBefore := cl.TotalMetaBlocks()

	rep, err := gc.New(c).Collect(ctx, b.ID(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodesKept != wantKept || rep.NodesDeleted != wantDeleted {
		t.Errorf("nodes kept/deleted = %d/%d, want %d/%d (blocks with a marked node whole / every other v1 block)",
			rep.NodesKept, rep.NodesDeleted, wantKept, wantDeleted)
	}
	if got, want := cl.TotalMetaBlocks(), blocksBefore-(len(v1)-len(live)); got != want {
		t.Errorf("stored blocks %d -> %d, want %d", blocksBefore, got, want)
	}
	if rep.PagesDeleted != 1 {
		t.Errorf("pages deleted = %d, want 1 (v1's page 0)", rep.PagesDeleted)
	}
	want := append([]byte(nil), base...)
	copy(want, patch)
	got := make([]byte, len(want))
	if _, err := b.Read(ctx, got, 0, 2); err != nil {
		t.Fatalf("read v2 after GC: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("v2 content changed by GC")
	}
}

// TestCollectDeletesBlockWithNoMarkedNode: a fully superseded write
// loses every one of its blocks, and Report counts their nodes.
func TestCollectDeletesBlockWithNoMarkedNode(t *testing.T) {
	cl, c := launch(t, cluster.Config{CacheNodes: 0})
	ctx := context.Background()
	const totalPages = 16
	b, _ := c.CreateBlob(ctx, pageSize, totalPages*pageSize)
	wr := meta.PageRange{First: 4, Count: 4}
	for seed := byte(1); seed <= 2; seed++ {
		if _, err := b.Write(ctx, pattern(seed, 4*pageSize), wr.First*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	perWrite := len(blockNodes(totalPages, wr))
	if got := cl.TotalMetaBlocks(); got != 2*perWrite {
		t.Fatalf("setup: %d stored blocks, want %d", got, 2*perWrite)
	}
	rep, err := gc.New(c).Collect(ctx, b.ID(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodesDeleted != meta.CountWriteSet(totalPages, wr) || rep.NodesKept != 0 {
		t.Errorf("nodes deleted/kept = %d/%d, want %d/0", rep.NodesDeleted, rep.NodesKept, meta.CountWriteSet(totalPages, wr))
	}
	if got := cl.TotalMetaBlocks(); got != perWrite {
		t.Errorf("stored blocks after GC = %d, want v2's %d", got, perWrite)
	}
	got := make([]byte, 4*pageSize)
	if _, err := b.Read(ctx, got, wr.First*pageSize, 2); err != nil || !bytes.Equal(got, pattern(2, 4*pageSize)) {
		t.Fatalf("read v2 after GC: %v", err)
	}
}

func TestCollectHorizonValidation(t *testing.T) {
	_, c := launch(t, cluster.Config{CacheNodes: 0})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	b.Write(ctx, pattern(1, pageSize), 0)

	if _, err := gc.New(c).Collect(ctx, b.ID(), 5); err == nil {
		t.Error("horizon above latest accepted")
	}
	rep, err := gc.New(c).Collect(ctx, b.ID(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VersionsCollected != 0 || rep.PagesDeleted != 0 {
		t.Errorf("horizon 1 collected something: %+v", rep)
	}
}

func TestCollectIdempotent(t *testing.T) {
	_, c := launch(t, cluster.Config{CacheNodes: 0})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	b.Write(ctx, pattern(1, 2*pageSize), 0)
	b.Write(ctx, pattern(2, 2*pageSize), 0)

	g := gc.New(c)
	if _, err := g.Collect(ctx, b.ID(), 2); err != nil {
		t.Fatal(err)
	}
	rep, err := g.Collect(ctx, b.ID(), 2)
	if err != nil {
		t.Fatalf("second collect: %v", err)
	}
	if rep.PagesDeleted != 0 {
		t.Errorf("second collect deleted %d pages", rep.PagesDeleted)
	}
}

func TestCollectLongChainKeepsLatestComposition(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 3, MetaProviders: 3, CacheNodes: 0})
	ctx := context.Background()
	const totalPages = 32
	b, _ := c.CreateBlob(ctx, pageSize, totalPages*pageSize)

	flat := make([]byte, totalPages*pageSize)
	writes := []struct {
		off, n int
	}{{0, 8}, {4, 4}, {10, 6}, {0, 2}, {14, 2}, {6, 6}}
	for i, w := range writes {
		data := pattern(byte(i+1), w.n*pageSize)
		if _, err := b.Write(ctx, data, uint64(w.off)*pageSize); err != nil {
			t.Fatal(err)
		}
		copy(flat[w.off*pageSize:], data)
	}
	latest := meta.Version(len(writes))

	rep, err := gc.New(c).Collect(ctx, b.ID(), latest-1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VersionsCollected != int(latest)-2 {
		t.Errorf("collected %d versions, want %d", rep.VersionsCollected, latest-2)
	}

	for _, v := range []meta.Version{latest - 1, latest} {
		got := make([]byte, totalPages*pageSize)
		if _, err := b.Read(ctx, got, 0, v); err != nil {
			t.Fatalf("read v%d after GC: %v", v, err)
		}
	}
	got := make([]byte, totalPages*pageSize)
	b.Read(ctx, got, 0, latest)
	if !bytes.Equal(got, flat) {
		t.Fatal("latest composition corrupted by GC")
	}
	_ = cl
}

func TestCollectAfterAbortedWrite(t *testing.T) {
	// An aborted (repaired) version below the horizon: its orphan pages
	// die via broadcast deletion even though no leaf references them.
	cl, err := cluster.Launch(cluster.Config{CacheNodes: 0, RepairTimeout: 50_000_000}) // 50ms
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if _, err := b.Write(ctx, pattern(1, 4*pageSize), 0); err != nil {
		t.Fatal(err)
	}

	// v2 supersedes v1 entirely.
	if _, err := b.Write(ctx, pattern(2, 4*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	rep, err := gc.New(c).Collect(ctx, b.ID(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesDeleted != 4 {
		t.Errorf("pages deleted = %d, want 4", rep.PagesDeleted)
	}
	got := make([]byte, 4*pageSize)
	if _, err := b.Read(ctx, got, 0, 2); err != nil {
		t.Fatal(err)
	}
}

// TestCollectErasureParity pins the parity sweep for erasure-coded
// blobs: collecting a fully superseded write removes its parity pages
// along with its data pages — parity lives outside the logical rel
// space and no leaf references it, so the GC must delete it explicitly
// (docs/erasure.md §6).
func TestCollectErasureParity(t *testing.T) {
	cl, c := launch(t, cluster.Config{
		DataProviders: 6,
		MetaProviders: 6,
		Redundancy:    erasure.Redundancy{K: 4, M: 2},
		CacheNodes:    0,
	})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}

	// v1: 8 pages = 2 full stripes (8 data + 4 parity shards).
	// v2 fully supersedes it with the same shard footprint.
	d1 := pattern(1, 8*pageSize)
	d2 := pattern(2, 8*pageSize)
	if _, err := b.Write(ctx, d1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, d2, 0); err != nil {
		t.Fatal(err)
	}
	if got := cl.TotalDataPages(); got != 24 {
		t.Fatalf("setup: stored shards = %d, want 24", got)
	}

	rep, err := gc.New(c).Collect(ctx, b.ID(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// 8 data + 4 parity pages of v1's write must be gone.
	if rep.PagesDeleted != 12 {
		t.Fatalf("pages deleted = %d, want 12 (8 data + 4 parity)", rep.PagesDeleted)
	}
	if got := cl.TotalDataPages(); got != 12 {
		t.Fatalf("stored shards after GC = %d, want 12 (parity leak?)", got)
	}

	// The surviving version still reads, including after a provider
	// stop (its stripes kept their parity).
	cl.DataServers[0].Close()
	got := make([]byte, len(d2))
	if _, err := b.Read(ctx, got, 0, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d2) {
		t.Fatal("post-GC degraded read mismatch")
	}
}
