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
// arriving — and its eventual completion is drained in the background,
// where it still feeds the provider's breaker: one stalled provider
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
// land in scratch buffers, never the caller's dst — the straggler's
// sink may still write there until it completes or is detached.
type hedgeSub struct {
	addr  string
	pd    *rpc.Pending
	taken bool // its answer was waited for: not abandoned with the rest
	refs  []provider.PageRef
	idx   []int // indexes into the straggling group's items
	dsts  [][]byte
}

// waitPrimary waits a group's fetch out, feeding its latency and
// outcome to the provider's record in the pool: its latency estimate
// and its breaker. The outcome includes the sink's: an answer that does
// not parse counts as the provider failing.
func (b *Blob) waitPrimary(ctx context.Context, pd *rpc.Pending, addr string, dispatched time.Time) error {
	_, err := pd.Wait(ctx)
	b.c.pool.Observe(addr, err, time.Since(dispatched))
	return err
}

// waitPagesInto waits out a page fetch whose answer lands in a pooled
// buffer (hedges) and decodes it into dsts. As with waitPrimary, an
// answer that does not parse counts as the provider failing, for the
// breaker too.
func (b *Blob) waitPagesInto(ctx context.Context, pd *rpc.Pending, addr string, dispatched time.Time, dsts [][]byte, status []provider.PageStatus) error {
	resp, err := pd.Wait(ctx)
	if err == nil {
		err = provider.DecodeGetPagesInto(resp, dsts, status)
		pd.Release()
	}
	b.c.pool.Observe(addr, err, time.Since(dispatched))
	return err
}

// drainTimeout bounds how long an abandoned straggler is waited on for
// breaker evidence. A response this late is indistinguishable from none
// at all, so the drain gives up and records a timeout instead — the
// one way a totally stalled provider, whose calls never complete,
// still accumulates evidence.
const drainTimeout = time.Second

// abandonFetch stops waiting for a straggler. It detaches the call
// first, so the call's sink never writes after abandonFetch returns,
// then drains it in the background: the call completes only once its
// whole answer is in, so its eventual outcome — success, error, or the
// drain timing out, mid-answer too — still reaches the breaker, and a
// provider that stalls every call accumulates evidence even though no
// read ever waits it out.
func (b *Blob) abandonFetch(pd *rpc.Pending, addr string, dispatched time.Time) {
	pd.Detach()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		_, err := pd.Wait(ctx)
		b.c.pool.Observe(addr, err, time.Since(dispatched))
		pd.Release()
	}()
}

// waitFetchHedged waits for one group's page fetch, whose sink reads
// the answer straight into the items' dsts. When the answer outlives the
// provider's adaptive hedge delay (waitHedged), each page is hedged: a
// fetch from its next copy, or its stripe's reconstruction. Hedge
// answers that arrive first populate hedged (scratch page bytes,
// checksum-verified), and once every page is hedge-served the straggler
// is abandoned.
//
// It returns hedged[j] — non-nil page bytes for items the hedge served,
// which the caller prefers when the primary failed those items —,
// abandoned, true when the hedge served everything and the primary was
// detached, and the primary's error as Pending.Wait returned it. Unless
// abandoned is set or err is ctx's, the primary has completed.
func (b *Blob) waitFetchHedged(ctx context.Context, pd *rpc.Pending, g *fetchGroup, addr string, dispatched time.Time, fop *trace.Op) (hedged [][]byte, abandoned bool, err error) {
	c := b.c
	if !g.canHedge() {
		return nil, false, b.waitPrimary(ctx, pd, addr, dispatched)
	}
	if err := b.waitHedged(ctx, pd, addr, dispatched); !errors.Is(err, errHedged) {
		if err == nil {
			err = b.waitPrimary(ctx, pd, addr, dispatched)
		}
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
			subs = append(subs, &hedgeSub{idx: []int{j}, dsts: make([][]byte, 1)})
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
		s.dsts = append(s.dsts, make([]byte, b.pageSize))
	}
	if len(subs) == 0 {
		// Nowhere to hedge: the straggler is these pages' only hope in
		// this wave; wait it out.
		return nil, false, b.waitPrimary(ctx, pd, addr, dispatched)
	}

	hstart := time.Now()
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
					s.dsts[0] = shards[slot]
					c.ReconstructedPages.Inc()
				}
				hdone <- s
			}()
			continue
		}
		fop.Notef("hedge: %d pages -> %s", len(s.refs), s.addr)
		s.pd = c.pool.Go(ctx, s.addr, provider.MGetPages,
			[][]byte{provider.EncodeGetPages(s.refs)}, nil)
		go func() {
			select {
			case <-s.pd.Done():
				hdone <- s
			case <-ctx.Done():
			}
		}()
	}
	// abandonRest drains the fetch hedges the race no longer waits for.
	abandonRest := func() {
		for _, s := range subs {
			if s.pd != nil && !s.taken {
				b.abandonFetch(s.pd, s.addr, hstart)
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
			err = b.waitPrimary(ctx, pd, addr, dispatched)
			abandonRest()
			return hedged, false, err
		case <-ctx.Done():
			abandonRest()
			return hedged, false, ctx.Err()
		case s := <-hdone:
			s.taken = true
			status := make([]provider.PageStatus, len(s.idx))
			if s.pd == nil {
				if s.dsts[0] != nil {
					status[0] = provider.PageOK
				}
			} else if b.waitPagesInto(ctx, s.pd, s.addr, hstart, s.dsts, status) != nil {
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
				return hedged, true, nil
			}
		}
	}
	// Every hedge landed without covering everything (misses, a stripe
	// short of survivors, or pages with no next copy): the straggler is
	// still those pages' wave — wait it out.
	return hedged, false, b.waitPrimary(ctx, pd, addr, dispatched)
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
