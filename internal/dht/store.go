package dht

import (
	"context"
	"fmt"
	"sync"

	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/wire"
)

// RPC method identifiers for the store service (0x01xx block).
const (
	MDelete   = 0x0103
	MMultiPut = 0x0104
	MMultiGet = 0x0105
	MStats    = 0x0106
)

func init() {
	rpc.RegisterMethodName(MDelete, "dht.MDelete")
	rpc.RegisterMethodName(MMultiPut, "dht.MMultiPut")
	rpc.RegisterMethodName(MMultiGet, "dht.MMultiGet")
	rpc.RegisterMethodName(MStats, "dht.MStats")
}

// storeShards is the number of lock shards in a Store. A power of two so
// shard selection is a mask.
const storeShards = 64

// Store is one metadata provider's in-RAM key/value storage. Keys are
// 64-bit hashes, values are opaque byte strings. Entries are write-once:
// the first Put wins and later Puts for the same key are acknowledged
// without effect. This is exactly what the immutable, deterministically
// keyed segment-tree nodes need, and it makes retries idempotent.
type Store struct {
	shards [storeShards]storeShard

	// Follow, when set, lets the store answer an MMultiGet that carries a
	// range with more than was asked: the hook names the keys a reader
	// of that range will want after a value, and whichever of them this
	// store holds ride along as extras, and are followed in turn, up to
	// MaxFollowBlocks values and MaxFollowBytes. Set before serving.
	// The store stays a generic write-once KV: what a value means is the
	// hook's business (mstore.NewProvider installs mstore.FollowBlock).
	Follow FollowFunc

	// Puts counts accepted first writes; DupPuts counts idempotent
	// repeats; Gets/Misses count lookups. The experiment harness reads
	// these to show cache effects.
	Puts    stats.Counter
	DupPuts stats.Counter
	Gets    stats.Counter
	Misses  stats.Counter
	Bytes   stats.Gauge

	// FollowServed counts extras served, FollowUsed those of them readers
	// reported consuming (Hint.Used), FollowCapHits the responses cut
	// short by MaxFollowBlocks or MaxFollowBytes: together they say
	// whether following is worth its bytes.
	FollowServed  stats.Counter
	FollowUsed    stats.Counter
	FollowCapHits stats.Counter
}

// FollowFunc appends to dst the keys a reader resolving [first,
// first+count) will ask for once it holds value, and returns dst. It
// must tolerate any bytes: stored values come from the network.
type FollowFunc func(dst []uint64, value []byte, first, count uint64) []uint64

type storeShard struct {
	mu sync.RWMutex
	m  map[uint64][]byte
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64][]byte)
	}
	return s
}

func (s *Store) shard(key uint64) *storeShard {
	return &s.shards[key&(storeShards-1)]
}

// Put stores value under key if absent. It reports whether the value was
// newly stored (false means an entry already existed and was kept).
func (s *Store) Put(key uint64, value []byte) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	_, exists := sh.m[key]
	if !exists {
		v := make([]byte, len(value))
		copy(v, value)
		sh.m[key] = v
	}
	sh.mu.Unlock()
	if exists {
		s.DupPuts.Inc()
		return false
	}
	s.Puts.Inc()
	s.Bytes.Add(int64(len(value)))
	return true
}

// Get returns the value for key.
func (s *Store) Get(key uint64) ([]byte, bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	s.Gets.Inc()
	if !ok {
		s.Misses.Inc()
	}
	return v, ok
}

// Delete removes key, reporting whether it existed. Used by the garbage
// collector once a key is provably unreachable.
func (s *Store) Delete(key uint64) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	v, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
	if ok {
		s.Bytes.Add(-int64(len(v)))
	}
	return ok
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].m)
		s.shards[i].mu.RUnlock()
	}
	return n
}

// StoreStats is the snapshot served by the MStats RPC and exported on
// /metrics; storeStatFields is its one field table.
type StoreStats struct {
	Entries uint64
	Bytes   uint64
	Puts    uint64
	DupPuts uint64
	Gets    uint64
	Misses  uint64

	FollowServed  uint64
	FollowUsed    uint64
	FollowCapHits uint64
}

// storeStatFields lists every StoreStats field once, in wire order, with
// its /metrics series. The MStats codec and RegisterMetrics both walk
// it, so the two surfaces cannot drift apart (a test checks the table
// against the struct).
var storeStatFields = []struct {
	series string
	gauge  bool // current level, not a monotone total
	at     func(*StoreStats) *uint64
}{
	{"dht_entries", true, func(s *StoreStats) *uint64 { return &s.Entries }},
	{"dht_bytes", true, func(s *StoreStats) *uint64 { return &s.Bytes }},
	{"dht_puts_total", false, func(s *StoreStats) *uint64 { return &s.Puts }},
	{"dht_dup_puts_total", false, func(s *StoreStats) *uint64 { return &s.DupPuts }},
	{"dht_gets_total", false, func(s *StoreStats) *uint64 { return &s.Gets }},
	{"dht_misses_total", false, func(s *StoreStats) *uint64 { return &s.Misses }},
	{"dht_follow_served_total", false, func(s *StoreStats) *uint64 { return &s.FollowServed }},
	{"dht_follow_used_total", false, func(s *StoreStats) *uint64 { return &s.FollowUsed }},
	{"dht_follow_cap_hits_total", false, func(s *StoreStats) *uint64 { return &s.FollowCapHits }},
}

// Add adds o to s field by field: the totals row of a stats table.
func (s *StoreStats) Add(o StoreStats) {
	for _, f := range storeStatFields {
		*f.at(s) += *f.at(&o)
	}
}

// Snapshot reads the store's counters.
func (s *Store) Snapshot() StoreStats {
	return StoreStats{
		Entries:       uint64(s.Len()),
		Bytes:         uint64(s.Bytes.Value()),
		Puts:          uint64(s.Puts.Value()),
		DupPuts:       uint64(s.DupPuts.Value()),
		Gets:          uint64(s.Gets.Value()),
		Misses:        uint64(s.Misses.Value()),
		FollowServed:  uint64(s.FollowServed.Value()),
		FollowUsed:    uint64(s.FollowUsed.Value()),
		FollowCapHits: uint64(s.FollowCapHits.Value()),
	}
}

// RegisterMetrics exports the store's statistics into reg as
// function-backed series evaluated at scrape time, one per field.
func (s *Store) RegisterMetrics(reg *stats.Registry) {
	for _, f := range storeStatFields {
		at := f.at
		read := func() int64 { st := s.Snapshot(); return int64(*at(&st)) }
		if f.gauge {
			reg.GaugeFunc(f.series, read)
		} else {
			reg.CounterFunc(f.series, read)
		}
	}
}

// RegisterHandlers wires the store's RPC methods onto srv.
func (s *Store) RegisterHandlers(srv *rpc.Server) {
	srv.Handle(MDelete, s.handleDelete)
	srv.Handle(MMultiPut, s.handleMultiPut)
	srv.HandleSegs(MMultiGet, s.handleMultiGet)
	srv.Handle(MStats, s.handleStats)
}

func (s *Store) handleDelete(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	key := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dht delete: %w", err)
	}
	w := wire.NewWriter(1)
	w.Bool(s.Delete(key))
	return w.Bytes(), nil
}

func (s *Store) handleMultiPut(_ context.Context, body []byte) ([]byte, error) {
	// Decode every entry before storing any: a body torn at entry i is
	// rejected whole, never half-applied.
	r := wire.NewReader(body)
	kvs := make([]KV, r.Count(minEntryBytes))
	for i := range kvs {
		kvs[i] = KV{Key: r.Uint64(), Value: r.BytesField()}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dht multiput: %w", err)
	}
	for _, kv := range kvs {
		s.Put(kv.Key, kv.Value)
	}
	return nil, nil
}

// handleMultiGet answers out of the store's own memory: each value
// goes out as a segment aliasing the stored bytes, which are immutable
// once put (Put copies, Delete only unlinks), so only the framing is
// written.
func (s *Store) handleMultiGet(_ context.Context, body []byte) ([][]byte, []rpc.Releaser, error) {
	keys, hint, err := decodeMultiGetRequest(body)
	if err != nil {
		return nil, nil, fmt.Errorf("dht multiget: %w", err)
	}
	s.FollowUsed.Add(int64(hint.Used))
	follow := s.Follow != nil && hint.Count > 0
	var next []uint64 // keys the hook named, in the order it named them
	if follow {
		next = make([]uint64, 0, 16) // room for a few blocks' names before it grows
	}
	n := keys.Len()
	w := wire.NewVec(8*n+16, 2*n+2)
	w.Uvarint(uint64(n))
	for i := range n {
		v, ok := s.Get(keys.At(i))
		if !ok {
			w.Uint8(0)
			continue
		}
		w.Uint8(1)
		w.Uvarint(uint64(len(v)))
		w.Alias(v)
		if follow {
			next = s.Follow(next, v, hint.First, hint.Count)
		}
	}
	if len(next) > 0 {
		s.serveFollowed(&w, keys, next, hint)
	}
	w.Uint8(0)
	return w.Segs(), nil, nil
}

// serveFollowed appends to w, as extras, the values among next that this
// store holds, following each in turn (breadth first: next grows while
// it is walked) until the walk runs dry or a cap is hit. A key is looked
// up at most once and never served beside itself.
func (s *Store) serveFollowed(w *wire.VecWriter, asked keyRun, next []uint64, hint Hint) {
	seen := make(map[uint64]struct{}, asked.Len()+len(next))
	for i := range asked.Len() {
		seen[asked.At(i)] = struct{}{}
	}
	served, size := 0, 0
	for i := 0; i < len(next); i++ { // len(next) <= (len(asked)+MaxFollowBlocks) hook calls' worth
		k := next[i]
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		v, ok := s.Get(k)
		if !ok {
			continue // lives on another node: the reader asks there
		}
		if served == MaxFollowBlocks || size+len(v) > MaxFollowBytes {
			s.FollowCapHits.Inc()
			break
		}
		w.Uint8(1)
		w.Uint64(k)
		w.Uvarint(uint64(len(v)))
		w.Alias(v)
		served++
		size += len(v)
		next = s.Follow(next, v, hint.First, hint.Count)
	}
	s.FollowServed.Add(int64(served))
}

func (s *Store) handleStats(_ context.Context, _ []byte) ([]byte, error) {
	st := s.Snapshot()
	w := wire.NewWriter(8 * len(storeStatFields))
	for _, f := range storeStatFields {
		w.Uint64(*f.at(&st))
	}
	return w.Bytes(), nil
}

// DecodeStoreStats parses an MStats response.
func DecodeStoreStats(body []byte) (StoreStats, error) {
	r := wire.NewReader(body)
	var st StoreStats
	for _, f := range storeStatFields {
		*f.at(&st) = r.Uint64()
	}
	return st, r.Err()
}
