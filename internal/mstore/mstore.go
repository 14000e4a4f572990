// Package mstore implements the metadata-provider client: typed storage
// and retrieval of segment-tree nodes over the DHT, plus the level-batched
// tree traversal a READ uses to resolve its segment to page locations.
//
// Nodes are stored packed, meta.BlockLevels tree levels of one version
// per dht value (meta.EncodeBlock). The traversal proceeds breadth-first:
// all block fetches of one step are issued as a single batch (grouped
// per metadata provider by the DHT client, coalesced into single frames
// by the RPC layer) and a fetched block serves every level it holds, so
// a read of P pages costs about one round trip of parallel requests per
// BlockLevels levels of each same-version run of its paths rather than
// O(P log P) sequential lookups.
package mstore

import (
	"context"
	"errors"
	"fmt"
	"time"

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
	cache *nodeCache

	// ProcessDelay models the client-side cost of receiving and
	// deserializing one tree node fetched over the network (the paper's
	// §V.C observation that "the main limiting factor is actually the
	// performance of the client's processing power"). Cache hits skip
	// it, so it also drives the cached-vs-uncached gap of Figure 3c.
	// Zero (the default) disables the model.
	ProcessDelay time.Duration
}

// DefaultCacheNodes mirrors the paper's experimental setup: the client
// cache can accommodate 2^20 tree nodes.
const DefaultCacheNodes = 1 << 20

// New creates a metadata client over kv with a node cache of cacheNodes
// entries (0 disables caching; negative uses DefaultCacheNodes).
func New(kv *dht.Client, cacheNodes int) *Client {
	if cacheNodes < 0 {
		cacheNodes = DefaultCacheNodes
	}
	return &Client{kv: kv, cache: newNodeCache(cacheNodes)}
}

// StoreNodes writes a batch of tree nodes to the metadata providers,
// grouped by block (meta.NodeKey.Block), one dht value each — so the
// first-put-wins unit a dead writer and its repairer can tear is the
// block. Nodes are also inserted into the local cache: a writer
// frequently re-reads its own recent versions. The whole batch encodes
// into one arena whose slices ride the scatter-gather MultiPut
// untouched; a sealed arena slice stays valid even when later encodes
// grow the arena into fresh memory.
func (c *Client) StoreNodes(ctx context.Context, nodes []meta.Node) error {
	ctx, op := trace.Start(ctx, "mstore.store")
	blocks := make(map[meta.BlockKey][]meta.Node)
	for i := range nodes {
		key := nodes[i].Key.Block()
		blocks[key] = append(blocks[key], nodes[i])
	}
	op.Notef("%d nodes in %d blocks", len(nodes), len(blocks))
	kvs := make([]dht.KV, 0, len(blocks))
	arena := wire.NewWriter(96 * len(nodes))
	for key, held := range blocks {
		start := arena.Len()
		meta.EncodeBlock(arena, key, held)
		end := arena.Len()
		kvs = append(kvs, dht.KV{Key: key.Hash(), Value: arena.Bytes()[start:end:end]})
	}
	err := c.kv.MultiPut(ctx, kvs)
	op.EndErr(err)
	if err != nil {
		return fmt.Errorf("mstore: store %d nodes: %w", len(nodes), err)
	}
	for _, held := range blocks {
		for i := range held {
			c.cache.put(held[i].Key, &held[i])
		}
	}
	return nil
}

// FetchNode retrieves a single node: the one-key case of FetchNodes.
func (c *Client) FetchNode(ctx context.Context, key meta.NodeKey) (*meta.Node, error) {
	nodes, err := c.FetchNodes(ctx, []meta.NodeKey{key})
	if err != nil {
		return nil, err
	}
	return nodes[key], nil
}

// FetchNodes retrieves a batch of nodes, serving what it can from the
// cache and fetching the blocks that hold the rest, each once, in one
// MultiGet. A key whose block is absent, or does not hold it, yields
// ErrMissingNode. The map also holds the fetched blocks' other nodes.
func (c *Client) FetchNodes(ctx context.Context, keys []meta.NodeKey) (map[meta.NodeKey]*meta.Node, error) {
	out := make(map[meta.NodeKey]*meta.Node, len(keys))
	return out, c.fetchInto(ctx, keys, out)
}

// fetchInto resolves keys into out, which doubles as the caller's memo:
// a key already in it costs nothing, and every node of every fetched
// block lands in it (and in the cache, a slot per node), so a traversal
// keeping one map never fetches a block twice even with the cache off.
func (c *Client) fetchInto(ctx context.Context, keys []meta.NodeKey, out map[meta.NodeKey]*meta.Node) error {
	var miss []meta.NodeKey
	var hashes []uint64
	var blocks map[meta.BlockKey]uint64 // block to fetch → its dht key; made on the first miss
	for _, k := range keys {
		if _, ok := out[k]; ok {
			continue
		}
		if n, ok := c.cache.get(k); ok {
			out[k] = n
			continue
		}
		miss = append(miss, k)
		b := k.Block()
		if _, dup := blocks[b]; !dup {
			if blocks == nil {
				blocks = make(map[meta.BlockKey]uint64)
			}
			blocks[b] = b.Hash()
			hashes = append(hashes, blocks[b])
		}
	}
	if len(miss) == 0 {
		return nil
	}
	fctx, op := trace.Start(ctx, "mstore.fetch")
	op.Notef("%d/%d cached, %d blocks", len(keys)-len(miss), len(keys), len(blocks))
	got, err := c.kv.MultiGet(fctx, hashes)
	op.EndErr(err)
	if err != nil {
		return fmt.Errorf("mstore: fetch %d blocks: %w", len(blocks), err)
	}
	decoded := 0
	for b, hash := range blocks {
		body, ok := got[hash]
		if !ok {
			continue // its keys are reported missing below
		}
		nodes, err := meta.DecodeBlock(body, b)
		if err != nil {
			return err
		}
		decoded += len(nodes)
		for j := range nodes {
			n := &nodes[j]
			c.cache.put(n.Key, n)
			out[n.Key] = n
		}
	}
	if c.ProcessDelay > 0 {
		// One sleep for the whole batch: the per-node costs are
		// sequential on the client CPU.
		time.Sleep(time.Duration(decoded) * c.ProcessDelay)
	}
	for _, k := range miss {
		if out[k] == nil {
			return fmt.Errorf("%w: %+v", ErrMissingNode, k)
		}
	}
	return nil
}

// DeleteBlock removes one stored block from the providers and the
// nodes it held — holds lists their ranges — from the local cache (GC).
func (c *Client) DeleteBlock(ctx context.Context, key meta.BlockKey, holds []meta.NodeRange) error {
	for _, r := range holds {
		c.cache.remove(meta.NodeKey{Blob: key.Blob, Version: key.Version, Range: r})
	}
	return c.kv.Delete(ctx, key.Hash())
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

	// One memo for the whole descent: a block serves every level it holds.
	nodes := make(map[meta.NodeKey]*meta.Node)
	frontier := []meta.NodeKey{meta.RootKey(blob, v, totalPages)}
	for len(frontier) > 0 {
		if err := c.fetchInto(ctx, frontier, nodes); err != nil {
			return nil, err
		}
		var next []meta.NodeKey
		for _, key := range frontier {
			n := nodes[key]
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
		frontier = next
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
