package core

// Hedged reads (docs/robustness.md): the tail-latency defense against
// gray failures the breaker has not (yet) tripped on. A page-fetch
// fan-out normally waits for every provider group it dispatched; when
// one group outlives its provider's adaptive hedge delay (~p95 of the
// provider's recent latency, hedgeDelay), each of its pages is raced
// against its next source, into scratch buffers: a k=1 page's next copy
// in its walk, a k>=2 page's stripe reconstructed from the other slots
// (striped.go). Whichever usable response lands first serves the page.
// A group's own fetch reads its answer straight into the read's buffer,
// so once the hedges have won the straggler is detached — its answer
// discarded unread, or its sink stopped if the answer is already
// arriving. No fetch here reports to the breaker: the pool records every
// call it carries, a detached straggler when it answers, or as a timeout
// at the pool's drain bound, once (rpc.Pool.Go). One stalled provider
// costs a read roughly one hedge delay instead of a full RPC timeout.
// Slow is not lost: pages no hedge serves wait for the straggler.

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

// fetchItem is one page a read must fill (fetchPages).
type fetchItem struct {
	leaf mstore.PageLeaf
	dst  []byte
	// walk is the page's provider walk still to run: walk[0] is the
	// provider the current wave asks, the rest queue behind it in order.
	// It starts as the leaf's Providers, which the metadata cache may
	// share, so reordering it copies it first.
	walk []uint32
	// deferred counts the walk's trailing providers that an open breaker
	// moved there (deferOpen).
	deferred int
	// missed collects providers that definitively lacked the page
	// (absent response): the read-repair targets.
	missed []uint32
	// unasked marks a k>=2 page whose own slot an open breaker put off:
	// its stripe's reconstruction counts that slot among the survivors.
	unasked bool
}

// relOn returns the rel-page under which provider id holds the page.
func (it *fetchItem) relOn(id uint32) uint32 {
	l := &it.leaf.Leaf
	for i, p := range l.Providers {
		if p == id {
			return l.ProviderRel(i)
		}
	}
	return l.RelPage
}

// breakerOpen reports whether provider id's circuit breaker is open.
func (c *Client) breakerOpen(id uint32) bool {
	addr, ok := c.cachedProviderAddr(id)
	return ok && !c.pool.Available(addr)
}

// deferOpen moves the head of the walk to its end while its provider's
// circuit breaker is open: an open breaker makes a provider the page's
// last resort, never drops it. A provider is deferred at most once per
// read, and only behind one not yet deferred, so the walk still asks
// every provider exactly once. It returns how many it deferred.
func (it *fetchItem) deferOpen(c *Client) (n int) {
	for len(it.walk)-it.deferred > 1 && c.breakerOpen(it.walk[0]) {
		it.walk = append(it.walk[1:len(it.walk):len(it.walk)], it.walk[0])
		it.deferred++
		n++
	}
	return n
}

// pop drops the walk's head, the provider the page just failed on.
func (it *fetchItem) pop() {
	if len(it.walk) <= it.deferred {
		it.deferred--
	}
	it.walk = it.walk[1:]
}

// fetchGroup batches one provider's page fetches for a wave. pages
// is the fetch's sink: it reads the answer's payloads straight into the
// items' dsts and records their outcomes.
type fetchGroup struct {
	refs  []provider.PageRef
	items []fetchItem
	pages provider.PagesInto
}

// canHedge reports whether any of the group's pages has a source behind
// the provider this wave asks: a next copy, or a stripe to reconstruct.
// A group with none has nowhere to hedge to, so an rs(1,0) read never
// arms a hedge timer.
func (g *fetchGroup) canHedge() bool {
	for i := range g.items {
		if len(g.items[i].walk) > 1 || g.items[i].leaf.Leaf.Stripe != nil {
			return true
		}
	}
	return false
}

// hedgeSub is one hedge of a straggling group: either a fetch of the
// pages whose next copy is on the same provider (pd), or the
// reconstruction of one stripe of a k>=2 page (pd nil). Hedge answers
// land in scratch buffers (pages.Dsts), never the caller's dst — the
// straggler's sink may still write there until it completes or is
// detached. A fetch reads its answer through pages, its sink, like a
// group's own fetch does.
type hedgeSub struct {
	addr  string
	pd    *rpc.Pending
	refs  []provider.PageRef
	idx   []int // indexes into the straggling group's items
	pages provider.PagesInto
}

// waitFetchHedged waits for one group's page fetch, whose sink reads
// the answer straight into the items' dsts. When the answer outlives the
// provider's adaptive hedge delay (waitHedged), each page is hedged: a
// fetch from its next copy, or its stripe's reconstruction. Hedge
// answers that arrive first populate hedged (scratch page bytes,
// checksum-verified), and once every page is hedge-served the straggler
// is detached. Every fetch feeds its provider's record in the pool by
// itself, a detached one too (rpc.Pool.Go).
//
// It returns hedged[j] — non-nil page bytes for items the hedge served,
// which the caller prefers when the primary failed those items —,
// abandoned, true when the hedge served everything and the primary was
// detached, and the primary's error as Pending.Wait returned it. Unless
// abandoned is set or err is ctx's, the primary has completed.
func (b *Blob) waitFetchHedged(ctx context.Context, pd *rpc.Pending, g *fetchGroup, addr string, dispatched time.Time, fop *trace.Op) (hedged [][]byte, abandoned bool, err error) {
	c := b.c
	if !g.canHedge() || !errors.Is(b.waitHedged(ctx, pd, addr, dispatched), errHedged) {
		_, err := pd.Wait(ctx)
		return nil, false, err
	}

	// The primary is a straggler. Build the hedges: each k>=2 page's
	// stripe, and each other page's next copy, grouped by provider —
	// skipping pages with no next copy, an unresolvable one, or one
	// whose breaker is open.
	var subs []*hedgeSub
	byID := make(map[uint32]*hedgeSub)
	for j, it := range g.items {
		if it.leaf.Leaf.Stripe != nil {
			// A stripe's slots live on distinct providers, so the group
			// holds one page per stripe.
			subs = append(subs, &hedgeSub{idx: []int{j}, pages: provider.PagesInto{
				Dsts: make([][]byte, 1), Status: make([]provider.PageStatus, 1),
			}})
			continue
		}
		if len(it.walk) < 2 {
			continue
		}
		hid := it.walk[1]
		haddr, ok := c.cachedProviderAddr(hid)
		if !ok || !c.pool.Available(haddr) {
			continue
		}
		s := byID[hid]
		if s == nil {
			s = &hedgeSub{addr: haddr}
			byID[hid] = s
			subs = append(subs, s)
		}
		s.refs = append(s.refs, provider.PageRef{
			Blob: b.id, Write: it.leaf.Leaf.Write, RelPage: it.relOn(hid),
		})
		s.idx = append(s.idx, j)
		s.pages.Dsts = append(s.pages.Dsts, make([]byte, b.pageSize))
	}

	hdone := make(chan *hedgeSub, len(subs))
	// Reconstructions run under rctx, cancelled once the race is over.
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, s := range subs {
		c.HedgedReads.Inc()
		if s.addr == "" {
			l := &g.items[s.idx[0]].leaf
			fop.Notef("hedge: page %d -> stripe reconstruction", l.Page)
			go func() {
				slot := l.Leaf.Stripe.SlotOf(l.Leaf.RelPage)
				if shards, err := b.reconstructStripe(rctx, &l.Leaf, []int{slot}); err == nil {
					s.pages.Dsts[0] = shards[slot]
					s.pages.Status[0] = provider.PageOK
					c.ReconstructedPages.Inc()
				}
				hdone <- s
			}()
			continue
		}
		fop.Notef("hedge: %d pages -> %s", len(s.refs), s.addr)
		s.pages.Status = make([]provider.PageStatus, len(s.refs))
		s.pd = c.pool.Go(ctx, s.addr, provider.MGetPages,
			[][]byte{provider.EncodeGetPages(s.refs)}, &s.pages)
		go func() {
			select {
			case <-s.pd.Done():
				hdone <- s
			case <-ctx.Done():
			}
		}()
	}
	// detachRest detaches the fetch hedges the race no longer waits for
	// (detaching one that completed does nothing).
	detachRest := func() {
		for _, s := range subs {
			if s.pd != nil {
				s.pd.Detach()
			}
		}
	}

	hedged = make([][]byte, len(g.items))
	served := 0
	for range subs {
		select {
		case <-pd.Done():
			// The straggler beat the remaining hedges after all: it wins
			// whatever the hedges have not already served.
			_, err = pd.Wait(ctx)
			detachRest()
			return hedged, false, err
		case <-ctx.Done():
			detachRest()
			return hedged, false, ctx.Err()
		case s := <-hdone:
			if s.pd != nil {
				if _, err := s.pd.Wait(ctx); err != nil {
					continue
				}
			}
			for k, st := range s.pages.Status {
				j := s.idx[k]
				if st == provider.PageOK && hedged[j] == nil &&
					wire.Checksum64(s.pages.Dsts[k]) == g.items[j].leaf.Leaf.Checksum {
					hedged[j] = s.pages.Dsts[k]
					served++
				}
			}
			if served == len(g.items) {
				fop.Notef("hedge win: %d pages, straggler %s detached", served, addr)
				pd.Detach()
				return hedged, true, nil
			}
		}
	}
	// There was nowhere to hedge, or every hedge landed without covering
	// everything (misses, a stripe short of survivors, or pages with no
	// next copy): the straggler is still those pages' wave — wait it out.
	_, err = pd.Wait(ctx)
	return hedged, false, err
}

// The hedge policy. The delay is srtt + 4*rttvar of the provider's
// latency estimate in the client's rpc.Pool, which every call the client
// makes to that address feeds: ~p95+ of its recent latency, so a hedge
// fires only for genuine stragglers and the no-fault hedge rate (and
// hence the extra provider load) stays near zero.
const (
	// hedgeMinDelay floors the adaptive delay: on a fast local cluster
	// the estimates converge to microseconds, where scheduler jitter
	// alone would fire spurious hedges.
	hedgeMinDelay = 10 * time.Millisecond
	// hedgeMaxDelay caps the delay so one pathologically slow sample
	// era cannot disable hedging for a provider that later degrades.
	hedgeMaxDelay = time.Second
	// hedgeDefaultDelay is used until a provider's estimate has
	// hedgeMinSamples samples.
	hedgeDefaultDelay = 50 * time.Millisecond
	hedgeMinSamples   = 3
)

// hedgeDelay returns how long a fetch to addr may run before the read
// hedges it, clamped to [hedgeMinDelay, hedgeMaxDelay].
func (c *Client) hedgeDelay(addr string) time.Duration {
	d := hedgeDefaultDelay
	if srtt, rttvar, n := c.pool.Latency(addr); n >= hedgeMinSamples {
		d = srtt + 4*rttvar
	}
	return min(max(d, hedgeMinDelay), hedgeMaxDelay)
}

// errHedged marks a fetch that outlived its provider's hedge delay
// (waitHedged).
var errHedged = errors.New("core: fetch outlived its hedge delay")

// waitHedged waits for a fetch to complete, but only up to its
// provider's adaptive hedge delay. It returns nil once the answer is in
// (the caller waits it out to take it), errHedged for a straggler, whose
// Pending stays live and the caller's to settle, or ctx's error. With
// hedging disabled it returns nil at once.
func (b *Blob) waitHedged(ctx context.Context, pd *rpc.Pending, addr string, dispatched time.Time) error {
	if b.c.opts.DisableHedging {
		return nil
	}
	if delay := b.c.hedgeDelay(addr) - time.Since(dispatched); delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-pd.Done():
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	} else {
		select {
		case <-pd.Done():
			return nil
		default:
		}
	}
	return errHedged
}
