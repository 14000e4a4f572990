// Package mstore implements the metadata-provider client: typed storage
// and retrieval of segment-tree nodes over the DHT, plus the level-batched
// tree traversal a READ uses to resolve its segment to page locations.
//
// Nodes are stored packed, meta.BlockLevels tree levels of one version
// per dht value (meta.EncodeBlock), and placed by region: every block
// under one aligned run of meta.RegionPages pages lives on the same
// metadata provider, whatever version wrote it (meta.BlockKey.Hash). The
// traversal proceeds breadth-first: all block fetches of one step are
// issued as a single batch (grouped per metadata provider by the DHT
// client, coalesced into single frames by the RPC layer) that carries
// the read's page range, and a provider that serves a block also serves
// the blocks below it that the range leads to and that it holds
// (FollowBlock, the server half of this package, installed on every
// metadata provider's store by NewProvider). So a read of P pages
// costs about one round trip per block above the regions that its paths
// cross and one per region below them, rather than O(P log P) sequential
// lookups.
//
// The block is the one unit on the client too. The cache holds decoded
// blocks by dht key, its budget counted in the nodes they hold, and a
// traversal memoizes the blocks it has met the same way; a node is found
// by scanning its block, at most 2^meta.BlockLevels-1 entries. Both
// compare the whole block key, so a 64-bit dht-key collision is a miss or
// a loud error, never another block's nodes, and a body becomes a block
// only through meta.DecodeBlock.
package mstore

import (
	"context"
	"errors"
	"fmt"

	"blob/internal/dht"
	"blob/internal/meta"
	"blob/internal/trace"
	"blob/internal/wire"
)

// ErrMissingNode is returned when a tree node cannot be found on any
// metadata provider — either the version is not yet (fully) written or
// the metadata was lost.
var ErrMissingNode = errors.New("mstore: metadata node not found")

// Client provides typed access to the metadata providers.
type Client struct {
	kv    *dht.Client
	cache *blockCache
}

// DefaultCacheNodes mirrors the paper's experimental setup: the client
// cache can accommodate 2^20 tree nodes.
const DefaultCacheNodes = 1 << 20

// New creates a metadata client over kv whose block cache holds up to
// cacheNodes nodes (0 disables caching; negative uses DefaultCacheNodes).
func New(kv *dht.Client, cacheNodes int) *Client {
	if cacheNodes < 0 {
		cacheNodes = DefaultCacheNodes
	}
	return &Client{kv: kv, cache: newBlockCache(cacheNodes)}
}

// StoreNodes writes a batch of tree nodes to the metadata providers,
// grouped by block (meta.NodeKey.Block), one dht value each — so the
// first-put-wins unit a dead writer and its repairer can tear is the
// block. The blocks are also inserted into the local cache: a writer
// frequently re-reads its own recent versions. The whole batch encodes
// into one arena whose slices ride the scatter-gather MultiPut
// untouched; a sealed arena slice stays valid even when later encodes
// grow the arena into fresh memory.
func (c *Client) StoreNodes(ctx context.Context, nodes []meta.Node) error {
	ctx, op := trace.Start(ctx, "mstore.store")
	index := make(map[meta.BlockKey]*block)
	var blocks []*block
	for i := range nodes {
		key := nodes[i].Key.Block()
		b := index[key]
		if b == nil {
			b = &block{key: key, hash: key.Hash()}
			index[key] = b
			blocks = append(blocks, b)
		}
		b.nodes = append(b.nodes, nodes[i])
	}
	op.Notef("%d nodes in %d blocks", len(nodes), len(blocks))
	kvs := make([]dht.KV, len(blocks))
	arena := wire.NewWriter(96 * len(nodes))
	for i, b := range blocks {
		start := arena.Len()
		meta.EncodeBlock(arena, b.key, b.nodes)
		end := arena.Len()
		kvs[i] = dht.KV{Key: b.hash, Value: arena.Bytes()[start:end:end]}
	}
	err := c.kv.MultiPut(ctx, kvs)
	op.EndErr(err)
	if err != nil {
		return fmt.Errorf("mstore: store %d nodes: %w", len(nodes), err)
	}
	for _, b := range blocks {
		c.cache.put(b)
	}
	return nil
}

// FetchNode retrieves a single node: the one-key case of FetchNodes.
func (c *Client) FetchNode(ctx context.Context, key meta.NodeKey) (*meta.Node, error) {
	d := descent{blocks: make(map[uint64]*block, 1)}
	defer d.bodies.Release()
	var out [1]*meta.Node
	err := c.fetch(ctx, []meta.NodeKey{key}, out[:], &d)
	return out[0], err
}

// FetchNodes retrieves a batch of nodes, serving what it can from the
// cache and fetching the blocks that hold the rest, each once, in one
// MultiGet. A key whose block is absent, or does not hold it, yields
// ErrMissingNode. The map also holds the other nodes of the blocks the
// keys live in. This is the fetch of the walkers that visit whole trees
// (GC, repair): it carries no range, so providers send nothing that was
// not asked for.
func (c *Client) FetchNodes(ctx context.Context, keys []meta.NodeKey) (map[meta.NodeKey]*meta.Node, error) {
	d := descent{blocks: make(map[uint64]*block, len(keys))}
	defer d.bodies.Release()
	err := c.fetch(ctx, keys, make([]*meta.Node, len(keys)), &d)
	nodes := make(map[meta.NodeKey]*meta.Node, len(keys))
	for _, b := range d.blocks {
		for i := range b.nodes {
			nodes[b.nodes[i].Key] = &b.nodes[i]
		}
	}
	return nodes, err
}

// descent is what one traversal keeps between its fetch waves.
type descent struct {
	// blocks holds, by dht key, every block the traversal has met: its
	// memo, so a block is looked up in the cache and fetched at most once
	// even with the cache off, and serves every level it holds.
	blocks map[uint64]*block
	// last is the block the previous key fell in: a walk crosses a
	// block's levels, and a wave's keys, in order, so the next key is
	// first compared with it and its block key hashed only when it lies
	// elsewhere.
	last *block
	// bodies holds, by dht key, block bodies the providers sent ahead
	// (FollowBlock) and the walk has not reached. They are unverified
	// bytes under a key a provider chose: one is decoded only when the
	// walk itself derives that key, by meta.DecodeBlock against the
	// block the walk expects there — so what a provider sends ahead can
	// save a fetch or fail the read loudly, never change its result.
	// They sit in the pooled responses that carried them, until the
	// traversal releases bodies as it returns; a decoded block keeps
	// nothing of its body.
	bodies dht.Values
	// pages is the range the traversal resolves; empty asks providers
	// for the requested blocks only.
	pages meta.PageRange

	// fetch's lists for the wave in hand, kept to be reused by the next.
	miss []waiting // the keys whose block this wave decodes
	want []*block  // the blocks this wave decodes
	ask  []uint64  // their dht keys, less those received ahead
}

// waiting is a key of a wave, keys[i], whose block b the wave decodes.
type waiting struct {
	i int
	b *block
}

// fetch resolves keys[i] into out[i]. A key whose block the memo holds
// costs a scan of that block; the other blocks are looked up in the
// cache, then among the bodies received ahead, and what is still missing
// is fetched, each block once, in the traversal's one network call: a
// MultiGet carrying d.pages. Every block decoded lands in d.blocks and in
// the cache, whole.
func (c *Client) fetch(ctx context.Context, keys []meta.NodeKey, out []*meta.Node, d *descent) error {
	miss, want, ask := d.miss[:0], d.want[:0], d.ask[:0]
	defer func() { d.miss, d.want, d.ask = miss, want, ask }()
	used := 0 // blocks of this wave already received ahead
	for i, k := range keys {
		key := k.Block()
		b := d.last
		if b == nil || b.key != key {
			hash := key.Hash()
			if b = d.blocks[hash]; b == nil {
				if b = c.cache.get(hash, key); b == nil {
					// Memoized before its body arrives, so the wave's other
					// keys of this block find it and ask no second time.
					b = &block{key: key, hash: hash}
					want = append(want, b)
					if _, ahead := d.bodies.Get(hash); ahead {
						used++
					} else {
						ask = append(ask, hash)
					}
				}
				d.blocks[hash] = b
			}
			if b.key != key {
				return fmt.Errorf("mstore: blocks %+v and %+v share dht key %#x (hash collision)", b.key, key, hash)
			}
			d.last = b
		}
		if b.nodes == nil {
			miss = append(miss, waiting{i, b})
			continue
		}
		if out[i] = b.node(k.Range); out[i] == nil {
			return fmt.Errorf("%w: %+v", ErrMissingNode, k)
		}
	}
	if len(miss) == 0 {
		return nil
	}
	fctx, op := trace.Start(ctx, "mstore.fetch")
	extra := 0
	if len(ask) > 0 {
		held := d.bodies.Len()
		hint := dht.Hint{First: d.pages.First, Count: d.pages.Count}
		if err := c.kv.MultiGet(fctx, ask, hint, &d.bodies); err != nil {
			op.EndErr(err)
			return fmt.Errorf("mstore: fetch %d blocks: %w", len(ask), err)
		}
		extra = d.bodies.Len() - held
		for _, hash := range ask {
			if _, ok := d.bodies.Get(hash); ok {
				extra--
			}
		}
	}
	op.Notef("%d/%d cached; asked %d, extra %d, used %d", len(keys)-len(miss), len(keys), len(ask), extra, used)
	op.End()
	for _, b := range want {
		body, ok := d.bodies.Take(b.hash)
		if !ok {
			continue // its keys are reported missing below
		}
		nodes, err := meta.DecodeBlock(body, b.key)
		if err != nil {
			return fmt.Errorf("mstore: block %+v: %w", b.key, err)
		}
		b.nodes = nodes
		c.cache.put(b)
	}
	for _, m := range miss {
		if out[m.i] = m.b.node(keys[m.i].Range); out[m.i] == nil {
			return fmt.Errorf("%w: %+v", ErrMissingNode, keys[m.i])
		}
	}
	return nil
}

// DeleteBlock removes one stored block from the providers and from the
// local cache (GC).
func (c *Client) DeleteBlock(ctx context.Context, key meta.BlockKey) error {
	hash := key.Hash()
	c.cache.remove(hash, key)
	return c.kv.Delete(ctx, hash)
}

// PageLeaf is one resolved page of a read plan.
type PageLeaf struct {
	// Page is the absolute page index within the blob.
	Page uint64
	// Leaf locates the bytes; Leaf.Write == 0 denotes the zero page.
	Leaf meta.LeafData
}

// ReadPlan resolves the segment pr of version v down to its page
// locations by descending the version's tree. The returned leaves are
// sorted by page index and cover every page of pr (zero pages included,
// with Leaf.Write == 0).
//
// The plan covers a contiguous page range, so every resolved leaf's
// slot is its page offset within pr: leaves are placed directly into a
// pre-sized slice in O(n), with no comparison sort. A coverage bitmap
// keeps the old integrity check's strength — a tree that resolves a
// page twice or not at all is reported, never silently accepted.
//
// Per the paper's read protocol, the traversal needs no locks and no
// interaction with the version manager: the sub-forest reachable from a
// published version's root is immutable.
func (c *Client) ReadPlan(ctx context.Context, blob uint64, v meta.Version, totalPages uint64, pr meta.PageRange) ([]PageLeaf, error) {
	if err := meta.ValidateGeometry(totalPages, pr); err != nil {
		return nil, err
	}
	// Pre-fill the plan with zero pages in order; resolving a leaf (or
	// absorbing a zero subtree) then only touches its own slots.
	leaves := make([]PageLeaf, pr.Count)
	for i := range leaves {
		leaves[i].Page = pr.First + uint64(i)
	}
	if v == meta.ZeroVersion {
		return leaves, nil
	}
	covered := make([]bool, pr.Count)
	placed := uint64(0)
	cover := func(lo, hi uint64) error { // [lo,hi) absolute page indexes
		for p := lo; p < hi; p++ {
			if covered[p-pr.First] {
				return fmt.Errorf("mstore: read plan resolved page %d twice (corrupt tree?)", p)
			}
			covered[p-pr.First] = true
		}
		placed += hi - lo
		return nil
	}

	// One memo for the whole descent: a block serves every level it
	// holds, and what the providers send ahead waits there to be reached.
	d := descent{blocks: make(map[uint64]*block), pages: pr}
	defer d.bodies.Release()
	frontier := []meta.NodeKey{meta.RootKey(blob, v, totalPages)}
	var next []meta.NodeKey // the two frontiers and nodes are reused wave to wave
	var nodes []*meta.Node
	for len(frontier) > 0 {
		nodes = append(nodes[:0], make([]*meta.Node, len(frontier))...)
		if err := c.fetch(ctx, frontier, nodes, &d); err != nil {
			return nil, err
		}
		next = next[:0]
		for _, n := range nodes {
			if n.IsLeaf() {
				p := n.Key.Range.Start
				if p < pr.First || p >= pr.End() {
					return nil, fmt.Errorf("mstore: read plan leaf %d outside segment [%d,%d) (corrupt tree?)", p, pr.First, pr.End())
				}
				if err := cover(p, p+1); err != nil {
					return nil, err
				}
				leaves[p-pr.First].Leaf = *n.Leaf
				continue
			}
			left, right := n.Key.Range.Children()
			for _, side := range [2]struct {
				r   meta.NodeRange
				ver meta.Version
			}{{left, n.LeftVer}, {right, n.RightVer}} {
				if !pr.Intersects(side.r) {
					continue
				}
				if side.ver == meta.ZeroVersion {
					lo, hi := side.r.Start, side.r.End()
					if lo < pr.First {
						lo = pr.First
					}
					if hi > pr.End() {
						hi = pr.End()
					}
					if err := cover(lo, hi); err != nil {
						return nil, err
					}
					continue
				}
				next = append(next, meta.NodeKey{Blob: blob, Version: side.ver, Range: side.r})
			}
		}
		frontier, next = next, frontier
	}
	if placed != pr.Count {
		return nil, fmt.Errorf("mstore: read plan resolved %d pages, want %d (corrupt tree?)", placed, pr.Count)
	}
	return leaves, nil
}

// CacheStats returns local cache effectiveness counters.
func (c *Client) CacheStats() CacheStats {
	return CacheStats{
		Hits:   c.cache.hits.Value(),
		Misses: c.cache.misses.Value(),
		Len:    c.cache.len(),
	}
}

// StoreStats returns per-provider storage statistics.
func (c *Client) StoreStats(ctx context.Context) (map[string]dht.StoreStats, error) {
	return c.kv.Stats(ctx)
}

// Refresh refetches the metadata provider membership from the
// directory, if the underlying kv client knows one. Long-lived agents
// (the repairer) call this per sweep: a boot-time ring snapshot can
// predate some providers' registration, and a stale ring hashes node
// keys to the wrong provider forever.
func (c *Client) Refresh(ctx context.Context) error {
	return c.kv.Refresh(ctx)
}
