package dht

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"blob/internal/backoff"
	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/wire"
)

// ErrNoNodes is returned when the ring is empty.
var ErrNoNodes = errors.New("dht: no storage nodes")

// Client routes key/value operations to the responsible replicas.
// It is safe for concurrent use. The ring view can be refreshed from the
// directory at any time; in-flight operations keep using the view they
// started with (immutable snapshots).
//
// Reads self-heal: when a MultiGet finds a key on a later replica after
// earlier ones answered "not found", the value is asynchronously re-put
// to those. Write-once semantics make this unconditionally safe, and it
// restores full replication after a node loss or a partially failed
// MultiPut.
type Client struct {
	pool     *rpc.Pool
	dirAddr  string
	replicas int

	// ReadRepairs counts values healed back onto earlier replicas.
	ReadRepairs stats.Counter

	mu   sync.RWMutex
	ring *Ring

	// used counts, per node, the extras it sent that readers have taken
	// (Values.Take) and it has not been told of yet.
	usedMu sync.Mutex
	used   map[string]uint64

	// refreshMu rate-limits empty-ring directory refetches on the
	// shared backoff curve: consecutive empty refreshes space out
	// exponentially, and a successful (non-empty) one resets the curve.
	refreshMu      sync.Mutex
	nextRefresh    time.Time
	refreshAttempt int
}

// refreshBackoff paces empty-ring directory refetches: quick retries
// while the cluster is still booting, easing off toward one per second
// if no storage node ever registers.
var refreshBackoff = backoff.Policy{Base: 125 * time.Millisecond, Max: time.Second}

// ringOrRefresh returns the current ring, refetching the directory
// membership first (rate-limited) when the snapshot is empty. A
// long-lived embedded client — a vmanager's repair store, a repair
// agent — may boot before any storage node has registered; without
// this its boot-time empty snapshot would return ErrNoNodes forever,
// while short-lived clients (one blobctl run) never notice the gap.
func (c *Client) ringOrRefresh(ctx context.Context) *Ring {
	ring := c.Ring()
	if ring.Size() > 0 || c.dirAddr == "" {
		return ring
	}
	c.refreshMu.Lock()
	due := time.Now().After(c.nextRefresh)
	if due {
		c.nextRefresh = time.Now().Add(refreshBackoff.Delay(c.refreshAttempt))
		c.refreshAttempt++
	}
	c.refreshMu.Unlock()
	if due {
		if err := c.Refresh(ctx); err != nil {
			return ring
		}
		if r := c.Ring(); r.Size() > 0 {
			c.refreshMu.Lock()
			c.refreshAttempt = 0
			c.refreshMu.Unlock()
			return r
		}
	}
	return c.Ring()
}

// NewClient creates a client with an explicit ring (tests, static
// deployments). replicas is clamped to at least 1.
func NewClient(pool *rpc.Pool, ring *Ring, replicas int) *Client {
	if replicas < 1 {
		replicas = 1
	}
	return &Client{pool: pool, ring: ring, replicas: replicas}
}

// NewDirectoryClient creates a client that fetches its ring from the
// directory service at dirAddr.
func NewDirectoryClient(ctx context.Context, pool *rpc.Pool, dirAddr string, replicas int) (*Client, error) {
	ring, _, err := FetchRing(ctx, pool, dirAddr)
	if err != nil {
		return nil, err
	}
	c := NewClient(pool, ring, replicas)
	c.dirAddr = dirAddr
	return c, nil
}

// Refresh refetches the membership from the directory, if one is known.
func (c *Client) Refresh(ctx context.Context) error {
	if c.dirAddr == "" {
		return nil
	}
	ring, _, err := FetchRing(ctx, c.pool, c.dirAddr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.ring = ring
	c.mu.Unlock()
	return nil
}

// Ring returns the current ring snapshot.
func (c *Client) Ring() *Ring {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring
}

// Replicas returns the configured replication factor.
func (c *Client) Replicas() int { return c.replicas }

// Delete removes key from all replicas (best effort).
func (c *Client) Delete(ctx context.Context, key uint64) error {
	reps := c.ringOrRefresh(ctx).ReplicasFor(key, c.replicas)
	if len(reps) == 0 {
		return ErrNoNodes
	}
	w := wire.NewWriter(8)
	w.Uint64(key)
	body := w.Bytes()
	var firstErr error
	for _, rep := range reps {
		if _, err := c.pool.Call(ctx, rep.Addr, MDelete, body); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// KV is one key/value pair for batched puts.
type KV struct {
	Key   uint64
	Value []byte
}

// MultiPut stores a batch of entries, grouping them per replica node so
// each node receives one aggregated request — the metadata write path of
// the paper, where a whole subtree is dispatched in a handful of frames.
// Each node's request body is assembled as scatter-gather segments whose
// value payloads alias the callers' buffers — no group encode buffer, no
// contiguous re-copy — so the values must stay immutable until MultiPut
// returns.
func (c *Client) MultiPut(ctx context.Context, kvs []KV) error {
	if len(kvs) == 0 {
		return nil
	}
	ring := c.ringOrRefresh(ctx)
	if ring.Size() == 0 {
		return ErrNoNodes
	}
	type group struct {
		vw       wire.VecWriter
		countSeg int
		n        int
	}
	groups := make(map[string]*group)
	var reps []NodeInfo
	for _, kv := range kvs {
		reps = ring.ReplicasForAppend(kv.Key, c.replicas, reps)
		for _, rep := range reps {
			g := groups[rep.Addr]
			if g == nil {
				g = &group{vw: wire.NewVec(16*len(kvs), 2+2*len(kvs))}
				g.countSeg = g.vw.ReserveSeg() // batch count, known at dispatch
				groups[rep.Addr] = g
			}
			g.vw.Uint64(kv.Key)
			g.vw.Uvarint(uint64(len(kv.Value)))
			g.vw.Alias(kv.Value)
			g.n++
		}
	}
	pend := make([]*rpc.Pending, 0, len(groups))
	for addr, g := range groups {
		g.vw.SetSeg(g.countSeg, binary.AppendUvarint(make([]byte, 0, 10), uint64(g.n)))
		pend = append(pend, c.pool.Go(ctx, addr, MMultiPut, g.vw.Segs(), nil))
	}
	var firstErr error
	acked := 0
	for _, p := range pend {
		if _, err := p.Wait(ctx); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		p.Release()
		acked++
	}
	if acked == 0 && firstErr != nil {
		return fmt.Errorf("dht: multiput failed everywhere: %w", firstErr)
	}
	if firstErr != nil && acked < len(groups) && c.replicas == 1 {
		// Partial failure: with replicas >= 2 the surviving copies serve
		// reads; with replicas == 1 some keys may be lost, so report.
		return fmt.Errorf("dht: multiput partial failure: %w", firstErr)
	}
	return nil
}

// Values holds what MultiGet calls found, by key. A value aliases the
// pooled response that carried it, so it is valid until Release hands
// the responses back; the zero value is empty and ready for use.
type Values struct {
	kv    *Client
	m     map[uint64]value
	resps []*rpc.Pending // the responses the values alias
}

// value is one value found, where it came from and whether it was asked
// for.
type value struct {
	body  []byte
	from  string // the node that sent it
	extra bool   // sent ahead by that node's follow hook, not asked for
}

// put records v under k. An asked value always lands; an extra never
// displaces a value already there.
func (vs *Values) put(k uint64, v value) {
	if vs.m == nil {
		vs.m = make(map[uint64]value)
	}
	if _, held := vs.m[k]; held && v.extra {
		return
	}
	vs.m[k] = v
}

// Get returns the value found for k.
func (vs *Values) Get(k uint64) ([]byte, bool) {
	v, ok := vs.m[k]
	return v.body, ok
}

// Len returns how many values are held.
func (vs *Values) Len() int { return len(vs.m) }

// Take returns the value found for k and forgets it. A value its node
// sent ahead unasked counts as used by that node: the next request that
// goes to it reports it (Hint.Used), so each store's served against
// used compares its own extras.
func (vs *Values) Take(k uint64) ([]byte, bool) {
	v, ok := vs.m[k]
	if !ok {
		return nil, false
	}
	delete(vs.m, k)
	if v.extra {
		vs.kv.noteUsed(v.from)
	}
	return v.body, true
}

// Release hands the responses back to the rpc layer's pool. No value
// may be used afterwards, and vs is empty again.
func (vs *Values) Release() {
	for _, p := range vs.resps {
		p.Release()
	}
	clear(vs.resps)
	vs.resps = vs.resps[:0]
	clear(vs.m)
}

// noteUsed credits addr with one extra consumed.
func (c *Client) noteUsed(addr string) {
	c.usedMu.Lock()
	if c.used == nil {
		c.used = make(map[string]uint64)
	}
	c.used[addr]++
	c.usedMu.Unlock()
}

// takeUsed returns and clears addr's count of extras consumed.
func (c *Client) takeUsed(addr string) uint64 {
	c.usedMu.Lock()
	n := c.used[addr]
	if n > 0 {
		delete(c.used, addr)
	}
	c.usedMu.Unlock()
	return n
}

// MultiGet fetches a batch of keys into into, one aggregated request per
// node (primary replicas), with per-key fallback to other replicas for
// keys the primary missed. A key every asked replica answered "not
// found" for is missing from into. A key whose last attempt ended in an
// error fails the whole call instead: "could not ask" must never read
// as "absent" (mstore's ErrMissingNode, which the repair agent takes to
// mean "garbage collected").
//
// hint rides every request. Stores with a follow hook answer a hint that
// carries a range with extras — values nobody asked for yet, under their
// own keys in into — which the caller must treat as unverified until it
// has derived their keys itself.
//
// Each tier is one wave dispatched from the calling goroutine and
// collected in order, as MultiPut does. The values stay inside the
// pooled responses that carried them, which into keeps until its
// Release, also when MultiGet fails. Wave calls bypass the pool's
// retries, not its record: each feeds its node's breaker and latency
// estimate by itself (rpc.Pool.Go). A node whose breaker is
// open is left out of the wave and asked after it, and a node whose wave
// call broke in transport is re-asked, both through CallWith, its answer
// copied out of the call's buffer, before its keys count as missed on
// that tier.
func (c *Client) MultiGet(ctx context.Context, keys []uint64, hint Hint, into *Values) error {
	if len(keys) == 0 {
		return nil
	}
	ring := c.ringOrRefresh(ctx)
	if ring.Size() == 0 {
		return ErrNoNodes
	}
	into.kv = c
	type group struct {
		keys []uint64
		body []byte
		pend *rpc.Pending // nil: breaker open at dispatch, asked after the wave through CallWith
	}
	var failed map[uint64]error    // keys whose latest attempt ended in an error
	var absent map[uint64][]string // key → nodes that answered "not found" (replicas > 1 only)
	var heal map[string][]KV       // node → values a later tier held and it did not
	remaining := keys
	var reps []NodeInfo
	// Try replica tiers in order: tier 0 = primary, tier 1 = secondary...
	for tier := 0; tier < c.replicas && len(remaining) > 0; tier++ {
		groups := make(map[string]*group)
		for _, k := range remaining {
			reps = ring.ReplicasForAppend(k, c.replicas, reps)
			if tier >= len(reps) {
				continue
			}
			g := groups[reps[tier].Addr]
			if g == nil {
				g = &group{}
				groups[reps[tier].Addr] = g
			}
			g.keys = append(g.keys, k)
		}
		for addr, g := range groups {
			h := hint
			h.Used = c.takeUsed(addr)
			w := wire.NewWriter(8*len(g.keys) + 16)
			appendMultiGetRequest(w, g.keys, h)
			g.body = w.Bytes()
			if c.pool.Available(addr) {
				g.pend = c.pool.Go(ctx, addr, MMultiGet, [][]byte{g.body}, nil)
			}
		}
		var miss []uint64
		for addr, g := range groups {
			answered := false
			decode := func(resp []byte) error {
				answered = true
				missed, err := decodeMultiGetResponse(resp, g.keys, addr, into)
				if err != nil {
					return err
				}
				miss = append(miss, missed...)
				for _, k := range g.keys {
					delete(failed, k)
					if c.replicas == 1 {
						continue
					}
					// missed is a subsequence of g.keys: walk the two together.
					if len(missed) > 0 && missed[0] == k {
						missed = missed[1:]
						if absent == nil {
							absent = make(map[uint64][]string)
						}
						absent[k] = append(absent[k], addr)
						continue
					}
					for _, behind := range absent[k] {
						if heal == nil {
							heal = make(map[string][]KV)
						}
						v, _ := into.Get(k)
						heal[behind] = append(heal[behind], KV{Key: k, Value: v})
					}
					delete(absent, k)
				}
				return nil
			}
			var err error
			reask := g.pend == nil
			if !reask {
				var resp []byte
				resp, err = g.pend.Wait(ctx)
				if err == nil {
					into.resps = append(into.resps, g.pend)
					err = decode(resp)
				} else {
					reask = !rpc.IsServerError(err) && ctx.Err() == nil && !errors.Is(err, context.DeadlineExceeded)
				}
			}
			if reask {
				err = c.pool.CallWith(ctx, addr, MMultiGet, g.body, func(resp []byte) error {
					return decode(bytes.Clone(resp)) // CallWith releases resp; the values outlive it
				})
			}
			if err == nil {
				continue
			}
			if answered {
				return err // the node answered and the answer does not parse
			}
			if failed == nil {
				failed = make(map[uint64]error)
			}
			for _, k := range g.keys {
				failed[k] = err
			}
			miss = append(miss, g.keys...)
		}
		remaining = miss
	}
	c.readRepair(ctx, heal)
	for _, err := range failed {
		return fmt.Errorf("dht: multiget: %d of %d keys unresolved: %w", len(failed), len(keys), err)
	}
	return nil
}

// readRepair re-puts values onto the replicas that answered "not found"
// for them, one MMultiPut per node, asynchronously and best-effort,
// under the trace and remaining budget of the MultiGet that found the
// gap. The values alias the MultiGet's responses: they are copied into
// the requests here, before it returns.
func (c *Client) readRepair(ctx context.Context, heal map[string][]KV) {
	for addr, kvs := range heal {
		w := wire.NewWriter(16 * len(kvs))
		w.Uvarint(uint64(len(kvs)))
		for _, kv := range kvs {
			w.Uint64(kv.Key)
			w.BytesField(kv.Value)
		}
		c.pool.Go(ctx, addr, MMultiPut, [][]byte{w.Bytes()}, nil)
		c.ReadRepairs.Add(int64(len(kvs)))
	}
}

// Stats fetches storage statistics from every node in the ring.
func (c *Client) Stats(ctx context.Context) (map[string]StoreStats, error) {
	ring := c.ringOrRefresh(ctx)
	out := make(map[string]StoreStats, ring.Size())
	for _, n := range ring.Nodes() {
		resp, err := c.pool.Call(ctx, n.Addr, MStats, nil)
		if err != nil {
			return nil, fmt.Errorf("dht: stats from %s: %w", n.Addr, err)
		}
		st, err := DecodeStoreStats(resp)
		if err != nil {
			return nil, err
		}
		out[n.Addr] = st
	}
	return out, nil
}
