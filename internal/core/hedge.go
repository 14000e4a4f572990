package core

// Hedged reads (docs/robustness.md): the tail-latency defense against
// gray failures the breaker has not (yet) tripped on. A page-fetch
// fan-out normally waits for every provider group it dispatched; when
// one group outlives its provider's adaptive hedge delay (~p95 of that
// provider's recent latency, latency.go), the same pages are requested
// from each page's next replica into scratch buffers and whichever
// usable response lands first serves the page. The straggler is never
// decoded after a hedge wins — its eventual completion is drained in
// the background, where it still feeds the provider's breaker — so one
// stalled replica costs a read roughly one hedge delay instead of a
// full RPC timeout. Erasure-coded blobs hedge differently: a stripe
// decodes from any k of its shards, so a read stops waiting for a
// straggling shard fetch and serves its pages by stripe reconstruction
// from the other survivors — falling back to the straggler's own answer
// only when fewer than k others turn up (striped.go).

import (
	"context"
	"errors"
	"time"

	"blob/internal/mstore"
	"blob/internal/provider"
	"blob/internal/rpc"
	"blob/internal/trace"
	"blob/internal/wire"
)

// fetchItem is one replicated page a read must fill (fetchPages).
type fetchItem struct {
	leaf mstore.PageLeaf
	dst  []byte
	// missed collects providers that definitively lacked the page
	// (absent response or digest-ruled-out) — the read-repair targets.
	missed []uint32
}

// fetchGroup batches one provider's page fetches for a tier wave.
type fetchGroup struct {
	refs  []provider.PageRef
	items []fetchItem
	dsts  [][]byte
}

// hedgeSub is one hedge sub-request: the slice of a straggling group's
// pages whose next replica is the same provider. Hedge responses land
// in scratch buffers, never the caller's dst — the straggler may still
// be decoded there if it responds first.
type hedgeSub struct {
	addr string
	refs []provider.PageRef
	idx  []int // indexes into the straggling group's items
	dsts [][]byte
}

// waitPrimary waits a group's fetch out, feeding its latency and
// outcome to the latency tracker and the provider's breaker.
func (b *Blob) waitPrimary(ctx context.Context, pd *rpc.Pending, addr string, dispatched time.Time) ([]byte, error) {
	resp, err := pd.Wait(ctx)
	b.c.observeFetch(addr, err, time.Since(dispatched))
	return resp, err
}

// drainTimeout bounds how long an abandoned straggler is waited on for
// breaker evidence. A response this late is indistinguishable from none
// at all, so the drain gives up and records a timeout instead — the
// one way a totally stalled provider, whose calls never complete,
// still accumulates evidence.
const drainTimeout = time.Second

// abandonFetch stops waiting for a straggler and drains it in the
// background: its eventual outcome — success, error, or the drain
// timing out — still reaches the breaker, so a provider that stalls
// every call accumulates evidence even though no read ever waits it
// out.
func (b *Blob) abandonFetch(pd *rpc.Pending, addr string, dispatched time.Time) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		_, err := pd.Wait(ctx)
		b.c.observeFetch(addr, err, time.Since(dispatched))
		pd.Release()
	}()
}

// waitFetchHedged waits for one replicated group's page fetch. When
// the response outlives the provider's adaptive hedge delay, the same
// pages are requested from each page's next replica tier; hedge
// responses that arrive first populate hedged (scratch page bytes,
// checksum-verified), and once every page is hedge-served the
// straggler is abandoned.
//
// Returns the primary response exactly as Pending.Wait would
// (resp, err), plus hedged[j] — non-nil page bytes for items the hedge
// served, which the caller prefers when the primary failed those items
// — and abandoned, true when the hedge served everything and the
// primary was never decoded (resp and err are then both nil).
func (b *Blob) waitFetchHedged(ctx context.Context, pd *rpc.Pending, g *fetchGroup, addr string, tier int, dispatched time.Time, fop *trace.Op) (resp []byte, err error, hedged [][]byte, abandoned bool) {
	c := b.c
	if c.opts.DisableHedging {
		resp, err = b.waitPrimary(ctx, pd, addr, dispatched)
		return resp, err, nil, false
	}
	if delay := c.lat.hedgeDelay(addr) - time.Since(dispatched); delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-pd.Done():
			t.Stop()
			resp, err = b.waitPrimary(ctx, pd, addr, dispatched)
			return resp, err, nil, false
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err(), nil, false
		case <-t.C:
		}
	} else {
		select {
		case <-pd.Done():
			resp, err = b.waitPrimary(ctx, pd, addr, dispatched)
			return resp, err, nil, false
		default:
		}
	}

	// The primary is a straggler. Build hedge sub-requests: each item's
	// next replica tier, grouped by provider, skipping items with no
	// next replica, an unresolvable one, or one whose breaker is open.
	subs := make(map[uint32]*hedgeSub)
	for j, it := range g.items {
		provs := it.leaf.Leaf.Providers
		if tier+1 >= len(provs) {
			continue
		}
		haddr, ok := c.cachedProviderAddr(provs[tier+1])
		if !ok || !c.pool.Available(haddr) {
			continue
		}
		s := subs[provs[tier+1]]
		if s == nil {
			s = &hedgeSub{addr: haddr}
			subs[provs[tier+1]] = s
		}
		s.refs = append(s.refs, provider.PageRef{
			Blob: b.id, Write: it.leaf.Leaf.Write, RelPage: it.leaf.Leaf.RelPage,
		})
		s.idx = append(s.idx, j)
		s.dsts = append(s.dsts, make([]byte, b.pageSize))
	}
	if len(subs) == 0 {
		// Nowhere to hedge: the straggler is these pages' only hope at
		// this tier; wait it out.
		resp, err = b.waitPrimary(ctx, pd, addr, dispatched)
		return resp, err, nil, false
	}

	hpend := make([]*rpc.Pending, 0, len(subs))
	hsubs := make([]*hedgeSub, 0, len(subs))
	for _, s := range subs {
		fop.Notef("hedge: %d pages -> %s", len(s.refs), s.addr)
		c.HedgedReads.Inc()
		hpend = append(hpend, c.pool.Go(ctx, s.addr, provider.MGetPages,
			[][]byte{provider.EncodeGetPages(s.refs)}))
		hsubs = append(hsubs, s)
	}
	hstart := time.Now()
	hdone := make(chan int, len(hpend))
	for i := range hpend {
		i := i
		go func() {
			select {
			case <-hpend[i].Done():
				hdone <- i
			case <-ctx.Done():
			}
		}()
	}

	hedged = make([][]byte, len(g.items))
	served, outstanding := 0, len(hpend)
	processed := make([]bool, len(hpend))
	drainRest := func() {
		for i := range hpend {
			if !processed[i] {
				b.abandonFetch(hpend[i], hsubs[i].addr, hstart)
			}
		}
	}
	for outstanding > 0 {
		select {
		case <-pd.Done():
			// The straggler beat the remaining hedges after all: it wins
			// whatever the hedges have not already served.
			resp, err = b.waitPrimary(ctx, pd, addr, dispatched)
			drainRest()
			return resp, err, hedged, false
		case <-ctx.Done():
			drainRest()
			return nil, ctx.Err(), hedged, false
		case i := <-hdone:
			processed[i] = true
			outstanding--
			s := hsubs[i]
			hresp, herr := hpend[i].Wait(ctx)
			c.observeFetch(s.addr, herr, time.Since(hstart))
			if herr != nil {
				continue
			}
			status := make([]provider.PageStatus, len(s.refs))
			derr := provider.DecodeGetPagesInto(hresp, s.dsts, status)
			hpend[i].Release()
			if derr != nil {
				continue
			}
			for k, st := range status {
				j := s.idx[k]
				if st == provider.PageOK && hedged[j] == nil &&
					wire.Checksum64(s.dsts[k]) == g.items[j].leaf.Leaf.Checksum {
					hedged[j] = s.dsts[k]
					served++
				}
			}
			if served == len(g.items) {
				fop.Notef("hedge win: %d pages, straggler %s abandoned", served, addr)
				b.abandonFetch(pd, addr, dispatched)
				return nil, nil, hedged, true
			}
		}
	}
	// Every hedge landed without covering everything (misses, or pages
	// with no next replica): the straggler is still those pages' tier —
	// wait it out.
	resp, err = b.waitPrimary(ctx, pd, addr, dispatched)
	return resp, err, hedged, false
}

// errShardHedged marks a striped shard fetch that outlived its hedge
// delay (waitShardHedged); fetchStriped routes those pages to stripe
// reconstruction and keeps the fetch's Pending as a straggler.
var errShardHedged = errors.New("core: shard fetch hedged to stripe reconstruction")

// waitShardHedged waits for a striped group's direct shard fetch, but
// only up to the provider's adaptive hedge delay: an erasure-coded
// read rarely needs any one provider, so the caller stops waiting for a
// straggler and serves its pages by decoding the stripe's other shards
// — the rs(k,m) form of a hedged read. Returns errShardHedged for a
// straggler, whose Pending stays live and the caller's to settle.
func (b *Blob) waitShardHedged(ctx context.Context, pd *rpc.Pending, addr string, dispatched time.Time) ([]byte, error) {
	if b.c.opts.DisableHedging {
		return b.waitPrimary(ctx, pd, addr, dispatched)
	}
	if delay := b.c.lat.hedgeDelay(addr) - time.Since(dispatched); delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-pd.Done():
			t.Stop()
			return b.waitPrimary(ctx, pd, addr, dispatched)
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	} else {
		select {
		case <-pd.Done():
			return b.waitPrimary(ctx, pd, addr, dispatched)
		default:
		}
	}
	b.c.HedgedReads.Inc()
	return nil, errShardHedged
}
