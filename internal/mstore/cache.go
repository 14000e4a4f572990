package mstore

import (
	"sync"

	"blob/internal/meta"
	"blob/internal/stats"
)

// block is one decoded stored block — the unit the providers store, a
// fetch returns, a descent follows and the GC deletes, and so the unit
// this client caches and memoizes. Immutable once it has nodes: descents
// share it freely, and only the cache touches its list links.
type block struct {
	key   meta.BlockKey
	hash  uint64      // key.Hash(), the dht key
	nodes []meta.Node // at most 2^meta.BlockLevels-1; nil while a descent still awaits the body

	prev, next *block // LRU links, guarded by the owning cache shard's lock
}

// node returns the block's node of range r, or nil if the writing version
// created none there: a scan of at most seven entries.
func (b *block) node(r meta.NodeRange) *meta.Node {
	for i := range b.nodes {
		if b.nodes[i].Key.Range == r {
			return &b.nodes[i]
		}
	}
	return nil
}

// blockCache is a sharded, bounded LRU over immutable decoded blocks,
// keyed by dht key. Because blocks are write-once and deterministically
// keyed, the cache needs no invalidation protocol — exactly why the
// paper reports that "client-side caching of metadata tree nodes results
// in optimizing out a large amount of RPC calls" (§V.D; their cache held
// 2^20 nodes). Capacity is counted in nodes, so that figure keeps its
// meaning: a block weighs what it holds.
//
// A lookup compares the whole block key, so two blocks whose 64-bit dht
// keys collide are a miss for one of them, never each other's nodes.
//
// The LRU list is intrusive: the block carries its own links, so an
// insert allocates nothing beyond the block a fetch decoded anyway.
type blockCache struct {
	shards   [cacheShards]cacheShard
	capShard int // nodes

	hits   stats.Counter
	misses stats.Counter
}

const cacheShards = 16

type cacheShard struct {
	mu   sync.Mutex
	m    map[uint64]*block
	head *block // most recently used
	tail *block // least recently used
	n    int    // nodes held
}

// newBlockCache creates a cache holding up to capacity nodes in total.
// A capacity of zero disables caching (every lookup misses).
func newBlockCache(capacity int) *blockCache {
	c := &blockCache{capShard: capacity / cacheShards}
	if capacity > 0 && c.capShard == 0 {
		c.capShard = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*block)
	}
	return c
}

func (c *blockCache) enabled() bool { return c.capShard > 0 }

func (c *blockCache) shard(hash uint64) *cacheShard {
	return &c.shards[hash&(cacheShards-1)]
}

// unlink removes b from the shard's LRU list (b must be linked).
func (sh *cacheShard) unlink(b *block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		sh.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		sh.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

// pushFront links b as the most recently used entry.
func (sh *cacheShard) pushFront(b *block) {
	b.next = sh.head
	if sh.head != nil {
		sh.head.prev = b
	}
	sh.head = b
	if sh.tail == nil {
		sh.tail = b
	}
}

// touch makes b, already linked, the most recently used entry.
func (sh *cacheShard) touch(b *block) {
	if sh.head != b {
		sh.unlink(b)
		sh.pushFront(b)
	}
}

// drop removes b, linked in this shard, from the shard altogether.
func (sh *cacheShard) drop(b *block) {
	sh.unlink(b)
	delete(sh.m, b.hash)
	sh.n -= len(b.nodes)
}

// get returns the cached block named key, whose dht key is hash, or nil.
func (c *blockCache) get(hash uint64, key meta.BlockKey) *block {
	if !c.enabled() {
		c.misses.Inc()
		return nil
	}
	sh := c.shard(hash)
	sh.mu.Lock()
	b := sh.m[hash]
	if b != nil && b.key != key {
		b = nil // another block under the same dht key: not this one
	}
	if b != nil {
		sh.touch(b)
	}
	sh.mu.Unlock()
	if b == nil {
		c.misses.Inc()
		return nil
	}
	c.hits.Inc()
	return b
}

// put inserts a decoded block, evicting least recently used blocks until
// the shard is back within its node budget — the block just inserted
// excepted, so a block always survives its own insert. A dht key already
// taken keeps its block: the same one is only refreshed, another one (a
// 64-bit collision) is not displaced, as on the providers, where the
// first put wins.
func (c *blockCache) put(b *block) {
	if !c.enabled() {
		return
	}
	sh := c.shard(b.hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if held := sh.m[b.hash]; held != nil {
		if held.key == b.key {
			sh.touch(held)
		}
		return
	}
	sh.m[b.hash] = b
	sh.pushFront(b)
	sh.n += len(b.nodes)
	for sh.n > c.capShard && sh.tail != b {
		sh.drop(sh.tail)
	}
}

// remove drops the block named key (after GC deletes it).
func (c *blockCache) remove(hash uint64, key meta.BlockKey) {
	if !c.enabled() {
		return
	}
	sh := c.shard(hash)
	sh.mu.Lock()
	if b := sh.m[hash]; b != nil && b.key == key {
		sh.drop(b)
	}
	sh.mu.Unlock()
}

// len returns the number of cached nodes.
func (c *blockCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].n
		c.shards[i].mu.Unlock()
	}
	return n
}

// CacheStats reports cache effectiveness: Hits and Misses count block
// lookups a traversal's own memo could not answer, Len cached nodes.
type CacheStats struct {
	Hits   int64
	Misses int64
	Len    int
}
