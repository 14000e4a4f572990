package core

// Client-side halves of the repair protocol (docs/replication.md §6):
// the digest cache behind bloom-hinted replica routing, and the
// background read-repair pushes that restore redundancy for pages a
// read had to fail over on.

import (
	"context"
	"time"

	"blob/internal/provider"
)

// readRepair is one page to re-push to the replicas that missed it.
// data may alias the caller's read buffer (or a decode scratch buffer)
// when handed to scheduleReadRepair, which copies it — only for repairs
// it actually schedules — before returning.
type readRepair struct {
	write     uint64
	rel       uint32
	data      []byte
	providers []uint32
}

// cachedDigest returns provider id's holdings digest if a fresh one is
// cached. ok is false when none (or only a stale or digest-less entry)
// is cached — the caller must probe the provider.
func (c *Client) cachedDigest(id uint32) (provider.Digest, bool) {
	c.digestMu.RLock()
	e, ok := c.digests[id]
	c.digestMu.RUnlock()
	if !ok || !e.ok || time.Since(e.at) > digestTTL {
		return provider.Digest{}, false
	}
	return e.d, true
}

// refreshDigests refreshes holdings digests for the given providers,
// caching the results for digestTTL: each provider is asked directly,
// with an MListWrites probe scoped to the writes that just missed there
// — the only way a client learns what a replica holds. A provider whose
// probe fails gets a negative entry, so a dead node is not
// digest-probed on every page of a large read.
func (c *Client) refreshDigests(ctx context.Context, blob uint64, writes map[uint32][]uint64) {
	for id, ws := range writes {
		c.digestMu.RLock()
		e, ok := c.digests[id]
		c.digestMu.RUnlock()
		if ok && time.Since(e.at) <= digestTTL {
			continue // fetched recently (possibly by a concurrent read)
		}
		refs := make([]provider.WriteRef, 0, len(ws))
		seen := make(map[uint64]bool, len(ws))
		for _, w := range ws {
			if !seen[w] {
				seen[w] = true
				refs = append(refs, provider.WriteRef{Blob: blob, Write: w})
			}
		}
		entry := digestEntry{at: time.Now()}
		if addr, err := c.providerAddr(ctx, id); err == nil {
			dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			resp, err := c.pool.Call(dctx, addr, provider.MListWrites, provider.EncodeListWrites(refs))
			cancel()
			if err == nil {
				if h, err := provider.DecodeListWrites(resp); err == nil {
					entry.d, entry.ok = h.Digest, true
				}
			}
		}
		c.digestMu.Lock()
		c.digests[id] = entry
		c.digestMu.Unlock()
	}
}

// SeedDigest injects a provider digest into the routing cache as if
// MListWrites had just returned it. Tests use it to pin the routing
// behavior around bloom false positives and stale digests.
func (c *Client) SeedDigest(id uint32, d provider.Digest) {
	c.digestMu.Lock()
	c.digests[id] = digestEntry{d: d, ok: true, at: time.Now()}
	c.digestMu.Unlock()
}

// scheduleReadRepair re-pushes served pages to the replicas that missed
// them, in the background and bounded by repairSem — a saturated client
// drops the repairs rather than queueing unboundedly (the repair agent
// or a later read will retry). First-wins idempotent puts make
// duplicate pushes harmless.
func (c *Client) scheduleReadRepair(blob uint64, repairs []readRepair) {
	select {
	case c.repairSem <- struct{}{}:
	default:
		return // saturated: shed this batch
	}
	// Materialize owned copies only now that the batch is definitely
	// going out — a shed batch costs nothing, and pages served straight
	// into the caller's buffer are captured before Read returns and the
	// caller may reuse it.
	for i := range repairs {
		repairs[i].data = append([]byte(nil), repairs[i].data...)
	}
	go func() {
		defer func() { <-c.repairSem }()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// One MPutPages per (provider, write) batch, like the write path.
		type key struct {
			id    uint32
			write uint64
		}
		type batch struct {
			rels  []uint32
			datas [][]byte
		}
		batches := make(map[key]*batch)
		for _, r := range repairs {
			for _, id := range r.providers {
				k := key{id, r.write}
				bt := batches[k]
				if bt == nil {
					bt = &batch{}
					batches[k] = bt
				}
				bt.rels = append(bt.rels, r.rel)
				bt.datas = append(bt.datas, r.data)
			}
		}
		for k, bt := range batches {
			addr, err := c.providerAddr(ctx, k.id)
			if err != nil {
				continue // provider gone: the repair agent will handle it
			}
			segs := provider.EncodePutPagesVec(blob, k.write, bt.rels, bt.datas)
			if _, err := c.pool.Go(ctx, addr, provider.MPutPages, segs, nil).Wait(ctx); err == nil {
				c.ReadRepairs.Add(int64(len(bt.rels)))
			}
		}
	}()
}
