// Package provider implements the data providers: the nodes that
// physically store blob pages. A WRITE never updates a page in place —
// each write stores a fresh set of pages keyed by the client-generated
// write identity — so a store is append-only until the garbage collector
// explicitly removes the pages of collected versions.
//
// Storage is pluggable behind the PageStore interface: the in-RAM Store
// (the paper's design) and the persistent DiskStore over
// internal/diskstore implement it, and the RPC Service hosts either.
//
// Pages are keyed (blobID, writeID, relPage). The write identity rather
// than the version number keys the data because, per the paper's
// protocol, pages are pushed to providers *before* the client asks the
// version manager for a version number.
package provider

import (
	"errors"
	"maps"
	"slices"
	"sync"

	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/wire"
)

// RPC method identifiers for the data provider service (0x03xx block).
const (
	MPutPages    = 0x0301
	MGetPages    = 0x0302
	MDeleteWrite = 0x0303
	MStats       = 0x0304
	MDeletePages = 0x0305
	// MListWrites lists the pages held per write, for the repair agent
	// (docs/erasure.md §5). 0x0307 is retired.
	MListWrites = 0x0306

	// MLatency serves the provider's get/put latency histogram
	// snapshots for the monitor's cluster-wide quantile rollups.
	MLatency = 0x0308
)

// ErrFull is returned when a put would exceed the provider's capacity.
var ErrFull = errors.New("provider: capacity exceeded")

// PageStore is the storage backend of one data provider. Store (RAM)
// and DiskStore (persistent segment log) implement it; the RPC Service
// serves either. Implementations must be safe for concurrent use — the
// paper's access model guarantees a page is never updated in place, so
// backends only ever add, serve and (on GC order) remove immutable pages.
type PageStore interface {
	// PutPages stores a batch of pages. Re-putting an existing page must
	// be idempotent (first wins) so client retries are safe. Returns
	// ErrFull when the batch would exceed the backend's capacity.
	PutPages(pages []Page) error
	// GetPage returns one page's bytes, or false if absent.
	GetPage(blob, write uint64, rel uint32) ([]byte, bool)
	// GetPagePinned is GetPage for MGetPages' copy-free serve: the page
	// bytes alias store memory, and pin, when non-nil, keeps that memory
	// valid (DiskStore: the segment's mapping). The caller must release
	// pin exactly once, after its last use of data — the Service hands it
	// to the rpc server, which releases it once the response is flushed.
	// pin is nil when data aliases long-lived store memory (the RAM
	// Store) and there is nothing to release; it is always nil when ok
	// is false.
	GetPagePinned(blob, write uint64, rel uint32) (data []byte, pin rpc.Releaser, ok bool)
	// DeletePages removes specific pages of a write, returning how many
	// were present. Used by the GC when part of a write is superseded.
	DeletePages(blob, write uint64, rels []uint32) int
	// DeleteWrite removes every page of (blob, write), returning the
	// number of pages freed.
	DeleteWrite(blob, write uint64) int
	// ForEachPage visits every stored page; iteration order is
	// unspecified.
	ForEachPage(fn func(blob, write uint64, rel uint32, data []byte))
	// Rels returns the rels of (blob, write) held live, ascending, read
	// from the index without touching page data — the holdings
	// MListWrites answers.
	Rels(blob, write uint64) []uint32
	// Snapshot returns current usage statistics.
	Snapshot() Stats
}

// pageShards must be a power of two.
const pageShards = 32

// writeKey identifies all pages of one write on one blob.
type writeKey struct {
	blob  uint64
	write uint64
}

// Store is the in-RAM page store of a single data provider.
type Store struct {
	capacity int64 // bytes; 0 means unlimited

	shards [pageShards]pageShard

	// Counters exposed through MStats and used by the load balancer.
	BytesUsed stats.Gauge
	PageCount stats.Gauge
	Puts      stats.Counter
	Gets      stats.Counter
	Misses    stats.Counter
}

type pageShard struct {
	mu sync.RWMutex
	m  map[writeKey]map[uint32][]byte
}

// NewStore creates a store bounded by capacity bytes (0 = unlimited).
func NewStore(capacity int64) *Store {
	s := &Store{capacity: capacity}
	for i := range s.shards {
		s.shards[i].m = make(map[writeKey]map[uint32][]byte)
	}
	return s
}

func (s *Store) shard(k writeKey) *pageShard {
	return &s.shards[wire.HashFields(k.blob, k.write)&(pageShards-1)]
}

// Page is one page upload or download unit.
type Page struct {
	Blob    uint64
	Write   uint64
	RelPage uint32
	Data    []byte
}

// PutPages stores a batch of pages atomically with respect to capacity
// accounting. Re-putting an existing page is idempotent (first wins),
// which makes client retries after partial failures safe — duplicates
// don't count against capacity, so a retry of a batch that already
// landed never trips ErrFull.
func (s *Store) PutPages(pages []Page) error {
	if s.capacity > 0 {
		var total int64
		for _, p := range pages {
			k := writeKey{p.Blob, p.Write}
			sh := s.shard(k)
			sh.mu.RLock()
			_, exists := sh.m[k][p.RelPage]
			sh.mu.RUnlock()
			if !exists {
				total += int64(len(p.Data))
			}
		}
		if s.BytesUsed.Value()+total > s.capacity {
			return ErrFull
		}
	}
	for _, p := range pages {
		k := writeKey{p.Blob, p.Write}
		sh := s.shard(k)
		sh.mu.Lock()
		wm := sh.m[k]
		if wm == nil {
			wm = make(map[uint32][]byte)
			sh.m[k] = wm
		}
		if _, exists := wm[p.RelPage]; !exists {
			buf := make([]byte, len(p.Data))
			copy(buf, p.Data)
			wm[p.RelPage] = buf
			s.BytesUsed.Add(int64(len(p.Data)))
			s.PageCount.Add(1)
			s.Puts.Inc()
		}
		sh.mu.Unlock()
	}
	return nil
}

// GetPage returns one page's bytes.
func (s *Store) GetPage(blob, write uint64, rel uint32) ([]byte, bool) {
	k := writeKey{blob, write}
	sh := s.shard(k)
	sh.mu.RLock()
	var data []byte
	var ok bool
	if wm := sh.m[k]; wm != nil {
		data, ok = wm[rel]
	}
	sh.mu.RUnlock()
	s.Gets.Inc()
	if !ok {
		s.Misses.Inc()
	}
	return data, ok
}

// GetPagePinned implements PageStore: a RAM page is long-lived store
// memory, so there is never a pin to release.
func (s *Store) GetPagePinned(blob, write uint64, rel uint32) ([]byte, rpc.Releaser, bool) {
	data, ok := s.GetPage(blob, write, rel)
	return data, nil, ok
}

// DeletePages removes specific pages of a write, returning how many were
// present. The garbage collector uses this when only part of a write has
// been superseded.
func (s *Store) DeletePages(blob, write uint64, rels []uint32) int {
	k := writeKey{blob, write}
	sh := s.shard(k)
	sh.mu.Lock()
	wm := sh.m[k]
	n := 0
	var freed int64
	for _, rel := range rels {
		if d, ok := wm[rel]; ok {
			freed += int64(len(d))
			delete(wm, rel)
			n++
		}
	}
	if wm != nil && len(wm) == 0 {
		delete(sh.m, k)
	}
	sh.mu.Unlock()
	if n > 0 {
		s.BytesUsed.Add(-freed)
		s.PageCount.Add(-int64(n))
	}
	return n
}

// DeleteWrite removes every page belonging to (blob, write), returning
// the number of pages freed. Used by the garbage collector.
func (s *Store) DeleteWrite(blob, write uint64) int {
	k := writeKey{blob, write}
	sh := s.shard(k)
	sh.mu.Lock()
	wm := sh.m[k]
	var freed int64
	for _, d := range wm {
		freed += int64(len(d))
	}
	n := len(wm)
	delete(sh.m, k)
	sh.mu.Unlock()
	if n > 0 {
		s.BytesUsed.Add(-freed)
		s.PageCount.Add(-int64(n))
	}
	return n
}

// ForEachPage visits every stored page. The data slice is the store's
// internal buffer; mutating it is only legitimate for fault-injection
// tests. Iteration order is unspecified.
func (s *Store) ForEachPage(fn func(blob, write uint64, rel uint32, data []byte)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, wm := range sh.m {
			for rel, data := range wm {
				fn(k.blob, k.write, rel, data)
			}
		}
		sh.mu.Unlock()
	}
}

// Rels implements PageStore without touching page data.
func (s *Store) Rels(blob, write uint64) []uint32 {
	k := writeKey{blob, write}
	sh := s.shard(k)
	sh.mu.RLock()
	rels := slices.Collect(maps.Keys(sh.m[k]))
	sh.mu.RUnlock()
	slices.Sort(rels)
	return rels
}

// Stats is the load/usage snapshot served over MStats and piggybacked on
// heartbeats to the provider manager; statFields is its one field table.
// The disk fields are zero for the RAM Store.
type Stats struct {
	BytesUsed int64
	PageCount int64
	Capacity  int64
	Puts      int64
	Gets      int64
	Misses    int64
	ActiveOps int64

	// Disk tier (DiskStore): total segment-file bytes, the portion
	// occupied by live page records, and the segment-file count.
	DiskBytes int64
	DiskLive  int64
	Segments  int64

	// Disk-tier restart telemetry: segment bytes fully replayed at the
	// last open versus index-sidecar bytes read in their place, and the
	// per-path segment counts. A healthy restart replays only the active
	// tail (SegmentsReplayed == 1); higher values mean sidecars were
	// missing or stale. See docs/diskstore-format.md.
	ReplayedBytes    int64
	SidecarBytes     int64
	SegmentsReplayed int64
	SidecarsLoaded   int64
}

// LiveRatio is the fraction of on-disk bytes still live (1 when the
// backend has no disk tier or no segments). Values well below 1 mean
// the compactor has reclaimable garbage.
func (st Stats) LiveRatio() float64 {
	if st.DiskBytes == 0 {
		return 1
	}
	return float64(st.DiskLive) / float64(st.DiskBytes)
}

// Snapshot returns current statistics.
func (s *Store) Snapshot() Stats {
	return Stats{
		BytesUsed: s.BytesUsed.Value(),
		PageCount: s.PageCount.Value(),
		Capacity:  s.capacity,
		Puts:      s.Puts.Value(),
		Gets:      s.Gets.Value(),
		Misses:    s.Misses.Value(),
	}
}

// Client-side request encoders, shared by the blob client and tests.

// PageRef identifies one page to fetch.
type PageRef struct {
	Blob    uint64
	Write   uint64
	RelPage uint32
}

// EncodeGetPages builds an MGetPages request body.
func EncodeGetPages(refs []PageRef) []byte {
	w := wire.NewWriter(4 + 20*len(refs))
	w.Uvarint(uint64(len(refs)))
	for _, p := range refs {
		w.Uint64(p.Blob)
		w.Uint64(p.Write)
		w.Uint32(p.RelPage)
	}
	return w.Bytes()
}

// EncodeDeleteWrite builds an MDeleteWrite request body.
func EncodeDeleteWrite(blob, write uint64) []byte {
	w := wire.NewWriter(16)
	w.Uint64(blob)
	w.Uint64(write)
	return w.Bytes()
}

// EncodeDeletePages builds an MDeletePages request body.
func EncodeDeletePages(blob, write uint64, rels []uint32) []byte {
	w := wire.NewWriter(24 + 4*len(rels))
	w.Uint64(blob)
	w.Uint64(write)
	w.Uint32Slice(rels)
	return w.Bytes()
}
