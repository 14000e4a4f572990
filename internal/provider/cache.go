package provider

import (
	"container/list"
	"io"
	"sync"

	"blob/internal/rpc"
	"blob/internal/stats"
)

// CachedStore is a write-through RAM cache tier in front of another
// PageStore (typically a DiskStore): puts go to the backend first and
// then populate the cache, reads are served from RAM when possible, and
// deletions evict before hitting the backend. Because pages are
// immutable, the cache never needs invalidation beyond GC-driven
// deletes — a hit is always correct.
type CachedStore struct {
	inner PageStore
	limit int64 // cache byte budget

	mu    sync.Mutex
	bytes int64
	lru   *list.List // front = most recent; values are *cacheEntry
	byKey map[writeKey]map[uint32]*list.Element
	// epoch guards insertions against racing deletions: it is bumped
	// before and after every backend delete, and an insert is abandoned
	// if the epoch moved since the inserter read the backend. Without it
	// a read that fetched a page just before a GC delete could re-insert
	// the page after the delete evicted it, resurrecting dead data in
	// RAM.
	epoch uint64

	hits stats.Counter
}

type cacheEntry struct {
	k    writeKey
	rel  uint32
	data []byte
}

// NewCachedStore wraps inner with a write-through cache holding at most
// limit bytes of page data (limit <= 0 disables caching entirely and
// just forwards).
func NewCachedStore(inner PageStore, limit int64) *CachedStore {
	c := &CachedStore{
		inner: inner,
		limit: limit,
		lru:   list.New(),
		byKey: make(map[writeKey]map[uint32]*list.Element),
	}
	return c
}

// PutPages implements PageStore: backend first (durability), cache after.
func (c *CachedStore) PutPages(pages []Page) error {
	if c.limit <= 0 {
		return c.inner.PutPages(pages)
	}
	c.mu.Lock()
	e := c.epoch
	c.mu.Unlock()
	if err := c.inner.PutPages(pages); err != nil {
		return err
	}
	c.mu.Lock()
	if c.epoch == e { // no delete raced the backend write
		for _, p := range pages {
			c.insertLocked(writeKey{p.Blob, p.Write}, p.RelPage, p.Data)
		}
	}
	c.mu.Unlock()
	return nil
}

// insertLocked copies data into the cache and evicts LRU entries over
// budget. Pages larger than the whole budget are not cached.
func (c *CachedStore) insertLocked(k writeKey, rel uint32, data []byte) {
	if int64(len(data)) > c.limit {
		return
	}
	wm := c.byKey[k]
	if wm == nil {
		wm = make(map[uint32]*list.Element)
		c.byKey[k] = wm
	}
	if e, ok := wm[rel]; ok {
		c.lru.MoveToFront(e)
		return
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	wm[rel] = c.lru.PushFront(&cacheEntry{k: k, rel: rel, data: buf})
	c.bytes += int64(len(buf))
	for c.bytes > c.limit {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
	}
}

// removeLocked drops one cache element.
func (c *CachedStore) removeLocked(e *list.Element) {
	ent := e.Value.(*cacheEntry)
	c.lru.Remove(e)
	c.bytes -= int64(len(ent.data))
	if wm := c.byKey[ent.k]; wm != nil {
		delete(wm, ent.rel)
		if len(wm) == 0 {
			delete(c.byKey, ent.k)
		}
	}
}

// GetPage implements PageStore: RAM hit or write-allocate from backend.
func (c *CachedStore) GetPage(blob, write uint64, rel uint32) ([]byte, bool) {
	k := writeKey{blob, write}
	data, epoch, hit := c.lookup(k, rel)
	if hit {
		return data, true
	}
	data, ok := c.inner.GetPage(blob, write, rel)
	if ok {
		c.fill(k, rel, data, epoch)
	}
	return data, ok
}

// GetPagePooled implements PooledGetter: a hit aliases the cache's own
// long-lived copy (no buffer to release); a miss reads through the
// backend's pooled form when it has one. fill copies, so the cache never
// retains a pooled slice.
func (c *CachedStore) GetPagePooled(blob, write uint64, rel uint32) ([]byte, *rpc.Buf, bool) {
	k := writeKey{blob, write}
	data, epoch, hit := c.lookup(k, rel)
	if hit {
		return data, nil, true
	}
	var buf *rpc.Buf
	var ok bool
	if pg, pooled := c.inner.(PooledGetter); pooled {
		data, buf, ok = pg.GetPagePooled(blob, write, rel)
	} else {
		data, ok = c.inner.GetPage(blob, write, rel)
	}
	if ok {
		c.fill(k, rel, data, epoch)
	}
	return data, buf, ok
}

// lookup returns the cached page on a hit; on a miss it returns the
// epoch the caller passes to fill after reading the backend.
func (c *CachedStore) lookup(k writeKey, rel uint32) (data []byte, epoch uint64, hit bool) {
	if c.limit <= 0 {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[k][rel]; ok {
		c.lru.MoveToFront(e)
		c.hits.Inc()
		return e.Value.(*cacheEntry).data, 0, true
	}
	return nil, c.epoch, false
}

// fill caches a copy of a page just read from the backend, unless a
// delete raced the read (the epoch moved since lookup).
func (c *CachedStore) fill(k writeKey, rel uint32, data []byte, epoch uint64) {
	if c.limit <= 0 {
		return
	}
	c.mu.Lock()
	if c.epoch == epoch {
		c.insertLocked(k, rel, data)
	}
	c.mu.Unlock()
}

// bumpEpoch invalidates in-flight insertions (see the epoch field).
func (c *CachedStore) bumpEpoch() {
	c.mu.Lock()
	c.epoch++
	c.mu.Unlock()
}

// DeletePages implements PageStore.
func (c *CachedStore) DeletePages(blob, write uint64, rels []uint32) int {
	k := writeKey{blob, write}
	c.mu.Lock()
	for _, rel := range rels {
		if e, ok := c.byKey[k][rel]; ok {
			c.removeLocked(e)
		}
	}
	c.epoch++
	c.mu.Unlock()
	n := c.inner.DeletePages(blob, write, rels)
	c.bumpEpoch()
	return n
}

// DeleteWrite implements PageStore.
func (c *CachedStore) DeleteWrite(blob, write uint64) int {
	k := writeKey{blob, write}
	c.mu.Lock()
	for _, e := range c.byKey[k] {
		c.removeLocked(e)
	}
	c.epoch++
	c.mu.Unlock()
	n := c.inner.DeleteWrite(blob, write)
	c.bumpEpoch()
	return n
}

// ForEachPage implements PageStore, iterating the authoritative backend.
func (c *CachedStore) ForEachPage(fn func(blob, write uint64, rel uint32, data []byte)) {
	c.inner.ForEachPage(fn)
}

// Snapshot implements PageStore, layering cache occupancy and hit counts
// over the backend's statistics.
func (c *CachedStore) Snapshot() Stats {
	st := c.inner.Snapshot()
	c.mu.Lock()
	st.CacheBytes = c.bytes
	c.mu.Unlock()
	st.CacheHits = c.hits.Value()
	return st
}

// BloomDigest implements the optional BloomSummary capability by
// delegating to the authoritative backend (the cache holds a subset of
// it, so the backend's digest covers every cached page too).
func (c *CachedStore) BloomDigest() (Digest, bool) {
	if bs, ok := c.inner.(BloomSummary); ok {
		return bs.BloomDigest()
	}
	return Digest{}, false
}

// ForEachWrite implements the optional WriteLister capability by
// delegating to the authoritative backend when it has the capability;
// otherwise it falls back to a (data-reading) page walk.
func (c *CachedStore) ForEachWrite(fn func(blob, write uint64, pages int)) {
	if wl, ok := c.inner.(WriteLister); ok {
		wl.ForEachWrite(fn)
		return
	}
	counts := make(map[writeKey]int)
	c.inner.ForEachPage(func(blob, write uint64, _ uint32, _ []byte) {
		counts[writeKey{blob, write}]++
	})
	for k, n := range counts {
		fn(k.blob, k.write, n)
	}
}

// Close closes the backend if it is closeable.
func (c *CachedStore) Close() error {
	if cl, ok := c.inner.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
