package mstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"blob/internal/dht"
	"blob/internal/meta"
	"blob/internal/netsim"
	"blob/internal/rpc"
)

type hostDialer struct{ h *netsim.Host }

func (d hostDialer) Dial(addr string) (net.Conn, error) { return d.h.Dial(addr) }

// newFabric starts n metadata providers and returns an mstore client.
func newFabric(t testing.TB, n, cacheNodes int) *Client {
	t.Helper()
	c, _ := newFabricStores(t, n, cacheNodes)
	return c
}

// newFabricStores is newFabric that also hands back the providers'
// stores, for tests that count stored values and lookups. The stores
// serve only what is asked; startFabric(t, n, FollowBlock) gives
// providers that keep descending, as deployed.
func newFabricStores(t testing.TB, n, cacheNodes int) (*Client, []*dht.Store) {
	t.Helper()
	f := startFabric(t, n, nil)
	return New(f.kv, cacheNodes), f.stores
}

// fabric is n metadata providers over netsim and a dht client on them.
type fabric struct {
	net    *netsim.Net
	stores []*dht.Store
	nodes  []dht.NodeInfo
	pool   *rpc.Pool
	kv     *dht.Client
}

func startFabric(t testing.TB, n int, follow dht.FollowFunc) *fabric {
	t.Helper()
	f := &fabric{net: netsim.New(netsim.Fast())}
	if _, bench := t.(*testing.B); !bench {
		// A block decoded from a response body after the descent released
		// it reads poison and fails its decode loudly; benchmarks measure
		// without the fill.
		_ = 0
	}
	t.Cleanup(f.net.Close)
	for i := 0; i < n; i++ {
		srv := rpc.NewServer()
		st := dht.NewStore()
		st.Follow = follow
		f.stores = append(f.stores, st)
		st.RegisterHandlers(srv)
		l, err := f.net.Host(fmt.Sprintf("meta%d", i)).Listen("rpc")
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(l)
		t.Cleanup(srv.Close)
		f.nodes = append(f.nodes, dht.NodeInfo{ID: uint64(i + 1), Addr: fmt.Sprintf("meta%d:rpc", i)})
	}
	f.pool = rpc.NewPool(hostDialer{f.net.Host("cli")})
	t.Cleanup(f.pool.Close)
	f.kv = dht.NewClient(f.pool, dht.NewRing(f.nodes), 1)
	return f
}

// writeVersion runs the full write-side metadata pipeline against an
// interval map, returning the built nodes.
func writeVersion(t testing.TB, c *Client, ivm *meta.IntervalVersionMap, blob uint64,
	v meta.Version, total uint64, wr meta.PageRange, writeID uint64) []meta.Node {
	t.Helper()
	borders := meta.Borders(total, wr)
	ivm.ResolveBorders(borders)
	ivm.Assign(wr, v)
	nodes, err := meta.Build(blob, v, total, wr, meta.BorderResolver(borders),
		func(p uint64) (meta.LeafData, error) {
			return meta.LeafData{Write: writeID, RelPage: uint32(p - wr.First), Providers: []uint32{1}}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreNodes(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestStoreFetchRoundTrip(t *testing.T) {
	c := newFabric(t, 3, 0)
	ctx := context.Background()
	n := meta.Node{
		Key:     meta.NodeKey{Blob: 1, Version: 1, Range: meta.NodeRange{Start: 0, Size: 8}},
		LeftVer: 1, RightVer: 0,
	}
	if err := c.StoreNodes(ctx, []meta.Node{n}); err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchNode(ctx, n.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.LeftVer != 1 || got.RightVer != 0 {
		t.Errorf("fetched = %+v", got)
	}
}

func TestFetchMissing(t *testing.T) {
	c := newFabric(t, 2, 0)
	key := meta.NodeKey{Blob: 9, Version: 9, Range: meta.NodeRange{Start: 0, Size: 4}}
	if _, err := c.FetchNode(context.Background(), key); !errors.Is(err, ErrMissingNode) {
		t.Errorf("err = %v, want ErrMissingNode", err)
	}
	if _, err := c.FetchNodes(context.Background(), []meta.NodeKey{key}); !errors.Is(err, ErrMissingNode) {
		t.Errorf("batch err = %v, want ErrMissingNode", err)
	}
}

func TestReadPlanZeroVersion(t *testing.T) {
	c := newFabric(t, 2, 0)
	leaves, err := c.ReadPlan(context.Background(), 1, meta.ZeroVersion, 16, meta.PageRange{First: 3, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 5 {
		t.Fatalf("leaves = %d, want 5", len(leaves))
	}
	for i, l := range leaves {
		if l.Page != uint64(3+i) || l.Leaf.Write != 0 {
			t.Errorf("leaf %d = %+v", i, l)
		}
	}
}

func TestReadPlanResolvesAcrossVersions(t *testing.T) {
	c := newFabric(t, 4, 0)
	const total = 32
	const blob = 5
	ivm, _ := meta.NewIntervalVersionMap(total)

	writeVersion(t, c, ivm, blob, 1, total, meta.PageRange{First: 0, Count: 16}, 101)
	writeVersion(t, c, ivm, blob, 2, total, meta.PageRange{First: 8, Count: 8}, 102)
	writeVersion(t, c, ivm, blob, 3, total, meta.PageRange{First: 12, Count: 12}, 103)

	ctx := context.Background()
	// Version 3's view: pages 0-7 from write 101, 8-11 from 102,
	// 12-23 from 103, 24-31 zero.
	leaves, err := c.ReadPlan(ctx, blob, 3, total, meta.PageRange{First: 0, Count: 32})
	if err != nil {
		t.Fatal(err)
	}
	wantWrite := func(p uint64) uint64 {
		switch {
		case p < 8:
			return 101
		case p < 12:
			return 102
		case p < 24:
			return 103
		default:
			return 0
		}
	}
	for _, l := range leaves {
		if l.Leaf.Write != wantWrite(l.Page) {
			t.Errorf("v3 page %d -> write %d, want %d", l.Page, l.Leaf.Write, wantWrite(l.Page))
		}
	}

	// Version 1's view is unchanged by later writes (snapshot isolation).
	leaves, err = c.ReadPlan(ctx, blob, 1, total, meta.PageRange{First: 0, Count: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		if l.Leaf.Write != 101 {
			t.Errorf("v1 page %d -> write %d, want 101", l.Page, l.Leaf.Write)
		}
	}
}

func TestReadPlanSubRange(t *testing.T) {
	c := newFabric(t, 3, 0)
	const total = 64
	ivm, _ := meta.NewIntervalVersionMap(total)
	writeVersion(t, c, ivm, 1, 1, total, meta.PageRange{First: 0, Count: 64}, 500)

	leaves, err := c.ReadPlan(context.Background(), 1, 1, total, meta.PageRange{First: 17, Count: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 9 {
		t.Fatalf("leaves = %d, want 9", len(leaves))
	}
	for i, l := range leaves {
		if l.Page != uint64(17+i) {
			t.Errorf("leaf %d = page %d, want %d (sorted, contiguous)", i, l.Page, 17+i)
		}
		if l.Leaf.RelPage != uint32(l.Page) {
			t.Errorf("page %d rel = %d", l.Page, l.Leaf.RelPage)
		}
	}
}

func TestReadPlanRandomizedOracle(t *testing.T) {
	c := newFabric(t, 5, 0)
	const total = 64
	const blob = 2
	rng := rand.New(rand.NewSource(31))
	ivm, _ := meta.NewIntervalVersionMap(total)

	// Flat model: owner[v][p] = writeID.
	owners := [][]uint64{make([]uint64, total)}
	const writes = 20
	for v := meta.Version(1); v <= writes; v++ {
		first := uint64(rng.Intn(total))
		count := uint64(rng.Intn(int(total-first))) + 1
		wr := meta.PageRange{First: first, Count: count}
		writeID := 7000 + uint64(v)
		writeVersion(t, c, ivm, blob, v, total, wr, writeID)
		next := append([]uint64(nil), owners[v-1]...)
		for p := wr.First; p < wr.End(); p++ {
			next[p] = writeID
		}
		owners = append(owners, next)
	}

	ctx := context.Background()
	for trial := 0; trial < 50; trial++ {
		v := meta.Version(rng.Intn(writes + 1))
		first := uint64(rng.Intn(total))
		count := uint64(rng.Intn(int(total-first))) + 1
		leaves, err := c.ReadPlan(ctx, blob, v, total, meta.PageRange{First: first, Count: count})
		if err != nil {
			t.Fatalf("v%d [%d,%d): %v", v, first, first+count, err)
		}
		for _, l := range leaves {
			if l.Leaf.Write != owners[v][l.Page] {
				t.Fatalf("v%d page %d -> %d, want %d", v, l.Page, l.Leaf.Write, owners[v][l.Page])
			}
		}
	}
}

func TestCacheServesRepeatReads(t *testing.T) {
	c := newFabric(t, 3, 1<<16)
	const total = 32
	ivm, _ := meta.NewIntervalVersionMap(total)
	writeVersion(t, c, ivm, 1, 1, total, meta.PageRange{First: 0, Count: 32}, 42)
	ctx := context.Background()

	// StoreNodes primed the cache; clear effect by measuring hit delta
	// across two identical reads.
	if _, err := c.ReadPlan(ctx, 1, 1, total, meta.PageRange{First: 0, Count: 32}); err != nil {
		t.Fatal(err)
	}
	h1 := c.CacheStats()
	if _, err := c.ReadPlan(ctx, 1, 1, total, meta.PageRange{First: 0, Count: 32}); err != nil {
		t.Fatal(err)
	}
	h2 := c.CacheStats()
	if h2.Misses != h1.Misses {
		t.Errorf("second identical read missed the cache: %+v -> %+v", h1, h2)
	}
	if h2.Hits <= h1.Hits {
		t.Error("second read produced no cache hits")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newFabric(t, 2, 0)
	const total = 8
	ivm, _ := meta.NewIntervalVersionMap(total)
	writeVersion(t, c, ivm, 1, 1, total, meta.PageRange{First: 0, Count: 8}, 42)
	ctx := context.Background()
	c.ReadPlan(ctx, 1, 1, total, meta.PageRange{First: 0, Count: 8})
	st := c.CacheStats()
	if st.Hits != 0 || st.Len != 0 {
		t.Errorf("disabled cache recorded hits: %+v", st)
	}
}

// testBlock builds a decoded block of version v covering pages [8i,8i+8)
// with the given number of nodes: leaves first, then interior nodes.
func testBlock(v meta.Version, i uint64, nodes int) *block {
	key := meta.NodeKey{Blob: 1, Version: v, Range: meta.NodeRange{Start: 8 * i, Size: 1}}.Block()
	b := &block{key: key, hash: key.Hash()}
	ranges := meta.WriteSet(1<<20, meta.PageRange{First: 8 * i, Count: 4})
	for _, r := range ranges {
		if r.Block() != key.Range || len(b.nodes) == nodes {
			continue
		}
		n := meta.Node{Key: meta.NodeKey{Blob: 1, Version: v, Range: r}}
		if r.IsLeaf() {
			n.Leaf = &meta.LeafData{Write: uint64(v)}
		}
		b.nodes = append(b.nodes, n)
	}
	if len(b.nodes) != nodes {
		panic(fmt.Sprintf("testBlock: built %d nodes, want %d", len(b.nodes), nodes))
	}
	return b
}

// TestCacheEviction: the cache's budget is nodes, not entries — a 7-node
// block takes the room of seven 1-node blocks, and pushes out exactly
// that many — and the least recently used blocks go first.
func TestCacheEviction(t *testing.T) {
	const capacity = 16 * 14 // 14 nodes per shard
	cache := newBlockCache(capacity)
	for v := meta.Version(1); v <= 500; v++ {
		cache.put(testBlock(v, uint64(v), 1+int(v)%7))
		if n := cache.len(); n > capacity {
			t.Fatalf("after %d inserts the cache holds %d nodes, cap %d", v, n, capacity)
		}
	}
	if cache.len() < capacity/2 {
		t.Errorf("cache holds %d nodes of %d after 500 inserts", cache.len(), capacity)
	}

	// One shard, watched closely: fourteen 1-node blocks fill it, then a
	// 7-node block arrives.
	cache = newBlockCache(capacity)
	var v meta.Version
	sameShard := func(nodes int) *block {
		for {
			v++
			if b := testBlock(v, 3, nodes); b.hash&(cacheShards-1) == 0 {
				return b
			}
		}
	}
	held := func(b *block) bool { return cache.get(b.hash, b.key) == b }
	var small []*block
	for i := 0; i < 14; i++ {
		small = append(small, sameShard(1))
		cache.put(small[i])
	}
	if !held(small[0]) { // and now the most recently used
		t.Fatal("a block was evicted from a shard it fits in")
	}
	big := sameShard(7)
	cache.put(big)
	if n := cache.len(); n != 14 {
		t.Errorf("shard holds %d nodes after the insert, want its budget of 14", n)
	}
	if !held(big) {
		t.Error("the block just inserted was evicted")
	}
	for i, b := range small {
		if evicted := i >= 1 && i <= 7; held(b) == evicted {
			t.Errorf("1-node block %d: held = %v; the 7-node insert should evict exactly the seven least recently used (1..7)", i, !evicted)
		}
	}
}

// TestCacheNewestSurvivesOwnInsert: a block heavier than a whole shard's
// budget still survives its own insert (alone), so a descent that just
// decoded it can always be served from it next time.
func TestCacheNewestSurvivesOwnInsert(t *testing.T) {
	cache := newBlockCache(16) // one node per shard
	for v := meta.Version(1); v <= 200; v++ {
		b := testBlock(v, uint64(v), 7)
		cache.put(b)
		if got := cache.get(b.hash, b.key); got != b {
			t.Fatalf("block %d evicted by its own insert", v)
		}
	}
	if n := cache.len(); n > 16*7 {
		t.Errorf("cache holds %d nodes: more than one block per shard", n)
	}
}

// TestCacheCollisionIsAMiss: two blocks under one dht key. The cache
// holds the first; the second is a miss on lookup, does not displace the
// first on insert, and removing the second leaves the first alone.
func TestCacheCollisionIsAMiss(t *testing.T) {
	cache := newBlockCache(1 << 10)
	first := testBlock(1, 0, 3)
	second := testBlock(2, 5, 7)
	second.hash = first.hash // a forged 64-bit collision
	cache.put(first)
	if got := cache.get(second.hash, second.key); got != nil {
		t.Fatalf("lookup of %+v returned %+v: another block's nodes", second.key, got.key)
	}
	cache.put(second)
	if got := cache.get(first.hash, first.key); got != first {
		t.Fatal("a colliding insert displaced the cached block")
	}
	if got := cache.get(second.hash, second.key); got != nil {
		t.Fatal("a colliding insert overwrote the cached block")
	}
	if n := cache.len(); n != 3 {
		t.Errorf("cache holds %d nodes, want the first block's 3", n)
	}
	cache.remove(second.hash, second.key)
	if got := cache.get(first.hash, first.key); got != first {
		t.Fatal("removing the colliding key removed the cached block")
	}
	cache.remove(first.hash, first.key)
	if cache.len() != 0 || cache.get(first.hash, first.key) != nil {
		t.Fatal("remove left the block behind")
	}
}

// TestFetchCollisionIsLoud: a descent that derives two block names with
// one dht key fails; it never resolves a key from the other block.
func TestFetchCollisionIsLoud(t *testing.T) {
	c := newFabric(t, 2, 1<<10)
	held := testBlock(1, 0, 3)
	want := meta.NodeKey{Blob: 1, Version: 2, Range: meta.NodeRange{Start: 40, Size: 1}}
	d := descent{blocks: map[uint64]*block{want.Block().Hash(): held}}
	var out [1]*meta.Node
	err := c.fetch(context.Background(), []meta.NodeKey{want}, out[:], &d)
	if err == nil || out[0] != nil {
		t.Fatalf("fetch = %+v, %v; want a collision error", out[0], err)
	}
}

func TestDeleteBlockRemovesEverywhere(t *testing.T) {
	c := newFabric(t, 2, 1<<10)
	ctx := context.Background()
	leaf := meta.Node{
		Key:  meta.NodeKey{Blob: 1, Version: 1, Range: meta.NodeRange{Start: 3, Size: 1}},
		Leaf: &meta.LeafData{Write: 9},
	}
	parent := meta.Node{Key: meta.NodeKey{Blob: 1, Version: 1, Range: meta.NodeRange{Start: 2, Size: 2}}, RightVer: 1}
	if leaf.Key.Block() != parent.Key.Block() {
		t.Fatal("test bug: the two nodes should share a block")
	}
	if err := c.StoreNodes(ctx, []meta.Node{parent, leaf}); err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Len != 2 {
		t.Fatalf("StoreNodes cached %d nodes, want the block's 2", st.Len)
	}
	if err := c.DeleteBlock(ctx, leaf.Key.Block()); err != nil {
		t.Fatal(err)
	}
	// Gone from the providers and from this client's cache, both nodes.
	if st := c.CacheStats(); st.Len != 0 {
		t.Errorf("cache still holds %d nodes after its only block was deleted", st.Len)
	}
	for _, k := range []meta.NodeKey{leaf.Key, parent.Key} {
		if _, err := c.FetchNode(ctx, k); !errors.Is(err, ErrMissingNode) {
			t.Errorf("node %+v survived its block's delete: %v", k, err)
		}
	}
}

// TestFetchKeyNotInBlock: a block that exists but does not hold the
// requested node is a missing node, not a decode error or a nil entry.
func TestFetchKeyNotInBlock(t *testing.T) {
	c := newFabric(t, 2, 0)
	ctx := context.Background()
	stored := meta.Node{
		Key:  meta.NodeKey{Blob: 1, Version: 1, Range: meta.NodeRange{Start: 2, Size: 1}},
		Leaf: &meta.LeafData{Write: 9, Providers: []uint32{1}},
	}
	if err := c.StoreNodes(ctx, []meta.Node{stored}); err != nil {
		t.Fatal(err)
	}
	sibling := meta.NodeKey{Blob: 1, Version: 1, Range: meta.NodeRange{Start: 3, Size: 1}}
	if sibling.Block() != stored.Key.Block() {
		t.Fatal("test bug: sibling should share the stored node's block")
	}
	if n, err := c.FetchNode(ctx, sibling); !errors.Is(err, ErrMissingNode) {
		t.Errorf("FetchNode of a node its block does not hold = %v, %v; want ErrMissingNode", n, err)
	}
	nodes, err := c.FetchNodes(ctx, []meta.NodeKey{stored.Key})
	if err != nil || !reflect.DeepEqual(*nodes[stored.Key], stored) {
		t.Errorf("stored node = %+v, %v", nodes[stored.Key], err)
	}
}

// sumStores adds up one counter over the providers' stores.
func sumStores(stores []*dht.Store, f func(*dht.Store) int64) int64 {
	var n int64
	for _, st := range stores {
		n += f(st)
	}
	return n
}

// randomWrites draws a short history of 1..6 writes over a blob of total
// pages: ranges from single pages to most of the blob, so versions
// overlap, nest and leave holes.
func randomWrites(rng *rand.Rand, total uint64) []meta.PageRange {
	writes := make([]meta.PageRange, 1+rng.Intn(6))
	for i := range writes {
		first := uint64(rng.Intn(int(total)))
		count := uint64(rng.Intn(int(min(total-first, 1+total>>uint(rng.Intn(5)))))) + 1
		writes[i] = meta.PageRange{First: first, Count: count}
	}
	return writes
}

// TestBlockLayoutProperties checks the one stored layout over random
// write sets on blobs of 2^4..2^14 pages: what StoreNodes packed,
// FetchNodes unpacks to identical nodes; the providers hold exactly the
// number of values block geometry predicts; and, with the cache off, a
// read plan looks each block its descent crosses up exactly once.
func TestBlockLayoutProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	for trial := 0; trial < 12; trial++ {
		c, stores := newFabricStores(t, 3, 0)
		total := uint64(1) << (4 + rng.Intn(11))
		if trial == 0 {
			total = 1 << 14
		}
		const blob = 6
		ivm, _ := meta.NewIntervalVersionMap(total)
		wantBlocks := 0
		var all []meta.Node
		history := randomWrites(rng, total)
		writes := len(history)
		for i, wr := range history {
			v := meta.Version(i + 1)
			all = append(all, writeVersion(t, c, ivm, blob, v, total, wr, 100+uint64(v))...)
			blocks := map[meta.NodeRange]bool{}
			for _, r := range meta.WriteSet(total, wr) {
				blocks[r.Block()] = true
			}
			wantBlocks += len(blocks)
		}
		if got := sumStores(stores, func(s *dht.Store) int64 { return int64(s.Len()) }); got != int64(wantBlocks) {
			t.Fatalf("trial %d (%d pages): %d stored values for %d nodes, geometry predicts %d blocks",
				trial, total, got, len(all), wantBlocks)
		}

		keys := make([]meta.NodeKey, len(all))
		for i := range all {
			keys[i] = all[i].Key
		}
		got, err := c.FetchNodes(ctx, keys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range all {
			if !reflect.DeepEqual(*got[keys[i]], all[i]) {
				t.Fatalf("trial %d: node %+v fetched as %+v", trial, all[i], got[keys[i]])
			}
		}

		// The descent of a random read, replayed node by node, names the
		// blocks it must cross; the plan may look up no more than those.
		v := meta.Version(1 + rng.Intn(writes))
		first := uint64(rng.Intn(int(total)))
		pr := meta.PageRange{First: first, Count: uint64(rng.Intn(int(min(total-first, 64)))) + 1}
		crossed := map[meta.BlockKey]bool{}
		var descend func(k meta.NodeKey)
		descend = func(k meta.NodeKey) {
			crossed[k.Block()] = true
			n := got[k]
			if n == nil {
				t.Fatalf("trial %d: descent reached unwritten node %+v", trial, k)
			}
			if n.IsLeaf() {
				return
			}
			l, r := k.Range.Children()
			if pr.Intersects(l) && n.LeftVer != meta.ZeroVersion {
				descend(meta.NodeKey{Blob: blob, Version: n.LeftVer, Range: l})
			}
			if pr.Intersects(r) && n.RightVer != meta.ZeroVersion {
				descend(meta.NodeKey{Blob: blob, Version: n.RightVer, Range: r})
			}
		}
		descend(meta.RootKey(blob, v, total))
		gets := func() int64 { return sumStores(stores, func(s *dht.Store) int64 { return s.Gets.Value() }) }
		before := gets()
		if _, err := c.ReadPlan(ctx, blob, v, total, pr); err != nil {
			t.Fatalf("trial %d: read plan v%d %v: %v", trial, v, pr, err)
		}
		if n := gets() - before; n != int64(len(crossed)) {
			t.Fatalf("trial %d: read plan v%d %v of %d pages made %d dht lookups for %d distinct blocks",
				trial, v, pr, total, n, len(crossed))
		}
	}
}

func BenchmarkReadPlan128Pages(b *testing.B) {
	c := newFabric(b, 8, 0)
	const total = 1 << 16
	ivm, _ := meta.NewIntervalVersionMap(total)
	writeVersion(b, c, ivm, 1, 1, total, meta.PageRange{First: 0, Count: 1024}, 9)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadPlan(ctx, 1, 1, total, meta.PageRange{First: 128, Count: 128}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadPlanSinglePageDeepTree is the fine-grain read's metadata
// step: one page of a 2^14-page tree patched page by page, through a
// cache far smaller than the tree, so most descents fetch their lower
// blocks — from a 3-store ring of providers that keep descending, as
// deployed. trips/op is the rpc calls one plan sends; the NoFollow twin
// runs the same reads against providers that serve only what is asked,
// so the trip saving shows without the real-process benchmark.
func BenchmarkReadPlanSinglePageDeepTree(b *testing.B) { benchSinglePageDeepTree(b, FollowBlock) }

func BenchmarkReadPlanSinglePageDeepTreeNoFollow(b *testing.B) { benchSinglePageDeepTree(b, nil) }

// deepTree builds that tree through a client with a 256-node cache and
// returns the client, the newest version and the source of random pages.
func deepTree(tb testing.TB, follow dht.FollowFunc) (*Client, meta.Version, *rand.Rand) {
	c := New(startFabric(tb, 3, follow).kv, 256)
	rng := rand.New(rand.NewSource(3))
	ivm, _ := meta.NewIntervalVersionMap(deepTreePages)
	v := meta.Version(1)
	writeVersion(tb, c, ivm, 1, v, deepTreePages, meta.PageRange{First: 0, Count: deepTreePages}, 9)
	for ; v < 64; v++ {
		writeVersion(tb, c, ivm, 1, v+1, deepTreePages, meta.PageRange{First: uint64(rng.Intn(deepTreePages)), Count: 1}, 10+uint64(v))
	}
	return c, v, rng
}

const deepTreePages = 1 << 14

func benchSinglePageDeepTree(b *testing.B, follow dht.FollowFunc) {
	c, v, rng := deepTree(b, follow)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	sent := rpc.M.CallsSent.Value()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadPlan(ctx, 1, v, deepTreePages, meta.PageRange{First: uint64(rng.Intn(deepTreePages)), Count: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rpc.M.CallsSent.Value()-sent)/float64(b.N), "trips/op")
}

// TestReadPlanSinglePageAllocBudget is the allocation gate on the
// fine-grain read's metadata step, BenchmarkReadPlanSinglePageDeepTree's
// workload once its cache has settled: 62 allocs/op since block bodies
// stay in the pooled responses, providers scan the blocks they serve
// without decoding them and answer out of their own memory, and the rpc
// server reuses its handler workers (93 when the block became the unit
// of the cache and of the descent's memo; 133 with a map slot, an LRU
// entry and an eviction per node), its ~1.7 round trips and their server
// side included — everything runs in this process. The slack is for
// sync.Pool refills after a GC cycle; a slot per node costs forty.
func TestReadPlanSinglePageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	c, v, rng := deepTree(t, FollowBlock)
	ctx := context.Background()
	plan := func() {
		if _, err := c.ReadPlan(ctx, 1, v, deepTreePages, meta.PageRange{First: uint64(rng.Intn(deepTreePages)), Count: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ { // settle the cache
		plan()
	}
	const budget = 70
	if avg := testing.AllocsPerRun(2000, plan); avg > budget {
		t.Fatalf("single-page plan of a deep tree: %.0f allocs/op, want <= %d", avg, budget)
	} else {
		t.Logf("%.0f allocs/op (budget %d)", avg, budget)
	}
}
