// Package mstore implements the metadata-provider client: typed storage
// and retrieval of segment-tree nodes over the DHT, plus the level-batched
// tree traversal a READ uses to resolve its segment to page locations.
//
// The traversal proceeds breadth-first: all node fetches of one tree
// level are issued as a single batch (grouped per metadata provider by
// the DHT client, coalesced into single frames by the RPC layer), so a
// read of a segment of P pages costs O(log2 totalPages) round trips of
// parallel requests rather than O(P log P) sequential lookups.
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

// StoreNodes writes a batch of tree nodes to the metadata providers.
// Nodes are also inserted into the local cache: a writer frequently
// re-reads its own recent versions. The whole batch encodes into one
// arena whose slices ride the scatter-gather MultiPut untouched; a
// sealed arena slice stays valid even when later encodes grow the arena
// into fresh memory.
func (c *Client) StoreNodes(ctx context.Context, nodes []meta.Node) error {
	ctx, op := trace.Start(ctx, "mstore.store")
	op.Notef("%d nodes", len(nodes))
	kvs := make([]dht.KV, len(nodes))
	arena := wire.NewWriter(96 * len(nodes))
	start := 0
	for i := range nodes {
		nodes[i].EncodeTo(arena)
		end := arena.Len()
		kvs[i] = dht.KV{Key: nodes[i].Key.Hash(), Value: arena.Bytes()[start:end:end]}
		start = end
	}
	err := c.kv.MultiPut(ctx, kvs)
	op.EndErr(err)
	if err != nil {
		return fmt.Errorf("mstore: store %d nodes: %w", len(nodes), err)
	}
	for i := range nodes {
		n := nodes[i]
		c.cache.put(n.Key, &n)
	}
	return nil
}

// FetchNode retrieves a single node.
func (c *Client) FetchNode(ctx context.Context, key meta.NodeKey) (*meta.Node, error) {
	if n, ok := c.cache.get(key); ok {
		return n, nil
	}
	ctx, op := trace.Start(ctx, "mstore.fetch")
	body, err := c.kv.Get(ctx, key.Hash())
	op.EndErr(err)
	if err != nil {
		if errors.Is(err, dht.ErrNotFound) {
			return nil, fmt.Errorf("%w: %+v", ErrMissingNode, key)
		}
		return nil, err
	}
	if c.ProcessDelay > 0 {
		time.Sleep(c.ProcessDelay)
	}
	n, err := meta.DecodeNode(body, key)
	if err != nil {
		return nil, err
	}
	c.cache.put(key, n)
	return n, nil
}

// FetchNodes retrieves a batch of nodes, serving what it can from the
// cache and batching the rest per provider. Missing nodes yield
// ErrMissingNode.
func (c *Client) FetchNodes(ctx context.Context, keys []meta.NodeKey) (map[meta.NodeKey]*meta.Node, error) {
	out := make(map[meta.NodeKey]*meta.Node, len(keys))
	var missKeys []meta.NodeKey
	var missHashes []uint64
	for _, k := range keys {
		if n, ok := c.cache.get(k); ok {
			out[k] = n
			continue
		}
		missKeys = append(missKeys, k)
		missHashes = append(missHashes, k.Hash())
	}
	if len(missKeys) == 0 {
		return out, nil
	}
	fctx, op := trace.Start(ctx, "mstore.fetch")
	op.Notef("%d/%d cached", len(keys)-len(missKeys), len(keys))
	got, err := c.kv.MultiGet(fctx, missHashes)
	op.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("mstore: fetch %d nodes: %w", len(missKeys), err)
	}
	if c.ProcessDelay > 0 {
		// One sleep for the whole batch: the per-node costs are
		// sequential on the client CPU.
		time.Sleep(time.Duration(len(missKeys)) * c.ProcessDelay)
	}
	for i, k := range missKeys {
		body, ok := got[missHashes[i]]
		if !ok {
			return nil, fmt.Errorf("%w: %+v", ErrMissingNode, k)
		}
		n, err := meta.DecodeNode(body, k)
		if err != nil {
			return nil, err
		}
		c.cache.put(k, n)
		out[k] = n
	}
	return out, nil
}

// DeleteNode removes a node from the providers and the local cache (GC).
func (c *Client) DeleteNode(ctx context.Context, key meta.NodeKey) error {
	c.cache.remove(key)
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

	frontier := []meta.NodeKey{meta.RootKey(blob, v, totalPages)}
	for len(frontier) > 0 {
		nodes, err := c.FetchNodes(ctx, frontier)
		if err != nil {
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
