package core

// Erasure-coded stripe paths (docs/erasure.md): the write side cuts a
// write into rs(k,m) stripes, encodes parity and fans all k+m shards
// out to distinct providers; the read side serves degraded reads by
// pulling any k surviving shards of a failed page's stripe and
// decoding inline. Parity pages are ordinary provider pages keyed in
// the high (ParityFlag) half of the write's rel-page space, so every
// PageStore backend and the whole repair protocol handle them
// untouched.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/mstore"
	"blob/internal/provider"
	"blob/internal/rpc"
	"blob/internal/trace"
	"blob/internal/wire"
)

// putStriped implements the rs(k,m) write fan-out: one allocation of
// k+m distinct providers per stripe, then every stripe's parity is
// encoded, then the shard pages go out grouped by provider across
// stripes — one MPutPages per provider per write, as under replication.
// It returns one StripeRef per stripe for the metadata build.
func (b *Blob) putStriped(ctx context.Context, writeID uint64, buf []byte) ([]*meta.StripeRef, error) {
	k, m := b.red.K, b.red.M
	npages := uint64(len(buf)) / b.pageSize
	nStripes := erasure.NumStripes(npages, k)

	alloc, err := b.allocateProviders(ctx, int(nStripes), k+m)
	if err != nil {
		return nil, err
	}
	group := len(alloc.IDs) / int(nStripes)
	if group < k+m {
		// The manager caps group size at the live provider count; a
		// stripe spread over fewer providers than shards would silently
		// lose the fault-tolerance the mode promises, so fail loudly.
		return nil, fmt.Errorf("core: rs(%d,%d) needs %d distinct live providers per stripe, placement yielded %d",
			k, m, k+m, group)
	}

	refs := make([]*meta.StripeRef, nStripes)
	var parityBytes int64
	// One entry per shard page: its provider, its rel and its bytes.
	nShards := int(npages) + int(nStripes)*m
	ids := make([]uint32, 0, nShards)
	rels := make([]uint32, 0, nShards)
	datas := make([][]byte, 0, nShards)
	for s := uint64(0); s < nStripes; s++ {
		width := erasure.StripeWidth(s, npages, k)
		code, err := erasure.Cached(width, m)
		if err != nil {
			return nil, err
		}
		first := len(datas)
		for i := 0; i < width; i++ {
			p := s*uint64(k) + uint64(i)
			datas = append(datas, buf[p*b.pageSize:(p+1)*b.pageSize])
			rels = append(rels, uint32(p))
		}
		parity, err := code.Encode(datas[first:])
		if err != nil {
			return nil, err
		}
		for j, p := range parity {
			datas = append(datas, p)
			rels = append(rels, erasure.ParityRel(uint32(s), j, m))
			parityBytes += int64(len(p))
		}
		provs := alloc.IDs[int(s)*group : int(s)*group+width+m]
		ids = append(ids, provs...)
		ref := &meta.StripeRef{
			K:          uint8(width),
			M:          uint8(m),
			FirstRel:   uint32(s) * uint32(k),
			ParityRel0: erasure.ParityRel(uint32(s), 0, m),
			Provs:      provs,
			Sums:       make([]uint64, width+m),
		}
		for i, d := range datas[first:] {
			ref.Sums[i] = wire.Checksum64(d)
		}
		refs[s] = ref
	}

	if err := b.pushPages(ctx, writeID, ids, rels, datas); err != nil {
		return nil, err
	}
	b.c.ParityBytes.Add(parityBytes)
	return refs, nil
}

// stripedItem is one erasure-coded page a read must fill. deferred
// marks a page whose direct fetch an open breaker put off: its provider
// was not asked, so reconstruction counts its slot among the survivors.
type stripedItem struct {
	leaf     mstore.PageLeaf
	dst      []byte
	deferred bool
}

// shardGroup batches one provider's direct shard fetches.
type shardGroup struct {
	refs  []provider.PageRef
	items []stripedItem
	dsts  [][]byte
}

// straggler is a direct shard fetch that outlived its provider's hedge
// delay. The rs hedge stops waiting for it but keeps its Pending: slow
// is not lost, so if reconstruction cannot find k other shards the
// straggler's own answer is still waited for (settleStragglers).
type straggler struct {
	pd     *rpc.Pending
	g      *shardGroup
	addr   string
	waited bool // its answer was consumed; otherwise it is drained in the background
}

// stripeKey identifies one stripe of one write.
type stripeKey struct {
	write uint64
	first uint32
}

func stripeOf(it stripedItem) stripeKey {
	return stripeKey{it.leaf.Leaf.Write, it.leaf.Leaf.Stripe.FirstRel}
}

// stripeWork is what the degraded path owes one stripe.
type stripeWork struct {
	failed []stripedItem // direct fetch errored, missed, was corrupt or was deferred
	slow   []stripedItem // direct fetch is a straggler, still in flight
}

// fetchStriped downloads erasure-coded pages: a first wave fetches
// every page from its single data provider; pages that fail (provider
// down, definite miss, corrupt bytes), whose provider's breaker is open,
// or that outlive their provider's adaptive hedge delay (the rs hedge,
// hedge.go) degrade to stripe
// reconstruction — pull any k surviving shards, decode, serve, and
// re-push the reconstructed page to its home provider in the
// background. A stripe that cannot be reconstructed without its
// stragglers waits for them instead of failing.
func (b *Blob) fetchStriped(ctx context.Context, items []stripedItem) (err error) {
	ctx, sop := trace.Start(ctx, "read.stripe")
	if sop != nil {
		defer func() { sop.EndErr(err) }()
	}
	groups := make(map[uint32]*shardGroup)
	for _, it := range items {
		id := it.leaf.Leaf.Providers[0]
		g := groups[id]
		if g == nil {
			g = &shardGroup{}
			groups[id] = g
		}
		g.refs = append(g.refs, provider.PageRef{
			Blob: b.id, Write: it.leaf.Leaf.Write, RelPage: it.leaf.Leaf.RelPage,
		})
		g.items = append(g.items, it)
		g.dsts = append(g.dsts, it.dst)
	}

	var failed []stripedItem
	pend := make([]*rpc.Pending, 0, len(groups))
	gs := make([]*shardGroup, 0, len(groups))
	addrs := make([]string, 0, len(groups))
	for id, g := range groups {
		addr, err := b.c.providerAddr(ctx, id)
		if err != nil {
			failed = append(failed, g.items...)
			continue
		}
		if !b.c.pool.Available(addr) {
			// Open breaker: defer the direct fetch to reconstruction,
			// which asks this provider only for a stripe it cannot
			// decode from the other shards.
			sop.Notef("breaker-defer: provider %d", id)
			for _, it := range g.items {
				it.deferred = true
				failed = append(failed, it)
			}
			continue
		}
		pend = append(pend, b.c.pool.Go(ctx, addr, provider.MGetPages, [][]byte{provider.EncodeGetPages(g.refs)}, nil))
		gs = append(gs, g)
		addrs = append(addrs, addr)
	}
	dispatched := time.Now()
	var late []straggler
	// Whatever path returns, a straggler nobody waited for is drained in
	// the background, where its outcome still feeds the breaker.
	defer func() {
		for _, s := range late {
			if !s.waited {
				b.abandonFetch(s.pd, s.addr, dispatched)
			}
		}
	}()
	for i, p := range pend {
		err := b.waitHedged(ctx, p, addrs[i], dispatched)
		if err == nil {
			// Shards land straight in their destination slices; failures
			// degrade to reconstruction, which overwrites dst.
			status := make([]provider.PageStatus, len(gs[i].refs))
			if err = b.waitPagesInto(ctx, p, addrs[i], dispatched, gs[i].dsts, status); err == nil {
				for j, st := range status {
					it := gs[i].items[j]
					if st != provider.PageOK ||
						wire.Checksum64(it.dst) != it.leaf.Leaf.Checksum {
						failed = append(failed, it)
					}
				}
				continue
			}
		}
		if errors.Is(err, errHedged) {
			b.c.HedgedReads.Inc()
			sop.Notef("hedge: %d pages from %s -> reconstruction", len(gs[i].items), addrs[i])
			late = append(late, straggler{pd: p, g: gs[i], addr: addrs[i]})
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// A transport failure, an error answer or an answer that does
		// not parse: the group's pages degrade to reconstruction.
		failed = append(failed, gs[i].items...)
	}
	if len(failed) == 0 && len(late) == 0 {
		return nil
	}

	// Degraded path: group the work by stripe so each stripe is decoded
	// once however many of its pages this read needs.
	byStripe := make(map[stripeKey]*stripeWork)
	work := func(it stripedItem) *stripeWork {
		w := byStripe[stripeOf(it)]
		if w == nil {
			w = &stripeWork{}
			byStripe[stripeOf(it)] = w
		}
		return w
	}
	for _, it := range failed {
		w := work(it)
		w.failed = append(w.failed, it)
	}
	hedgedPages := 0
	for _, s := range late {
		for _, it := range s.g.items {
			w := work(it)
			w.slow = append(w.slow, it)
		}
		hedgedPages += len(s.g.items)
	}
	sop.Notef("degraded: %d pages", len(failed)+hedgedPages)

	// Optimistic pass: reconstruct every stripe from the shards that are
	// neither failed nor slow. A stripe left short of k shards that has
	// stragglers is not unavailable yet — it waits for them below.
	short := make(map[stripeKey]bool)
	for k, w := range byStripe {
		all := make([]stripedItem, 0, len(w.failed)+len(w.slow))
		all = append(append(all, w.failed...), w.slow...)
		err := b.reconstructStripe(ctx, all)
		switch {
		case err == nil:
			// Reconstruction served the stripe's hedged-away pages
			// without their straggler: those hedges won.
			b.c.HedgeWins.Add(int64(len(w.slow)))
		case errors.Is(err, ErrPageUnavailable) && len(w.slow) > 0:
			short[k] = true
		default:
			return err
		}
	}
	if len(short) == 0 {
		return nil
	}
	if err := b.settleStragglers(ctx, late, short, byStripe, dispatched); err != nil {
		return err
	}
	for k := range short {
		if w := byStripe[k]; len(w.failed) > 0 {
			if err := b.reconstructStripe(ctx, w.failed); err != nil {
				return err
			}
		}
	}
	return nil
}

// settleStragglers waits out the stragglers that hold pages of the short
// stripes — stripes reconstruction could not serve without them — and
// takes their answers for exactly those pages (dsts of pages already
// served stay untouched). A page whose late answer verifies is served; a
// page whose straggler errored, missed or answered corrupt bytes moves
// to its stripe's failed list, for one more reconstruction that may now
// use the stragglers' providers as survivors.
func (b *Blob) settleStragglers(ctx context.Context, late []straggler, short map[stripeKey]bool, byStripe map[stripeKey]*stripeWork, dispatched time.Time) error {
	for i := range late {
		s := &late[i]
		dsts := make([][]byte, len(s.g.items))
		needed := false
		for j, it := range s.g.items {
			if short[stripeOf(it)] {
				dsts[j] = it.dst
				needed = true
			}
		}
		if !needed {
			continue
		}
		s.waited = true
		status := make([]provider.PageStatus, len(dsts))
		err := b.waitPagesInto(ctx, s.pd, s.addr, dispatched, dsts, status)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		for j, it := range s.g.items {
			if dsts[j] == nil {
				continue
			}
			if err != nil || status[j] != provider.PageOK ||
				wire.Checksum64(it.dst) != it.leaf.Leaf.Checksum {
				w := byStripe[stripeOf(it)]
				w.failed = append(w.failed, it)
			}
		}
	}
	return nil
}

// reconstructStripe serves the given pages (all members of one stripe)
// by pulling the stripe's surviving shards and decoding. Any k verified
// shards suffice; fewer fails the read with ErrPageUnavailable. A
// survivor whose provider's breaker is open is asked only when the
// others leave the stripe short of k shards.
func (b *Blob) reconstructStripe(ctx context.Context, items []stripedItem) error {
	ref := items[0].leaf.Leaf.Stripe
	write := items[0].leaf.Leaf.Write
	n := int(ref.K) + int(ref.M)

	// Slots whose direct fetch failed or is still in flight are not
	// re-probed; a deferred page's slot was never asked.
	skip := make([]bool, n)
	for _, it := range items {
		if s := ref.SlotOf(it.leaf.Leaf.RelPage); s >= 0 && !it.deferred {
			skip[s] = true
		}
	}

	// A stripe's slots live on distinct providers (putStriped), so each
	// survivor is asked on its own: first those whose provider's breaker
	// is closed, then, if they leave the stripe short, the open ones.
	var ready, open []int
	addrs := make([]string, n)
	for s := 0; s < n; s++ {
		if skip[s] {
			continue
		}
		addr, err := b.c.providerAddr(ctx, ref.Provs[s])
		if err != nil {
			continue // unreachable survivor: maybe enough others remain
		}
		addrs[s] = addr
		if b.c.pool.Available(addr) {
			ready = append(ready, s)
		} else {
			open = append(open, s)
		}
	}
	shards := make([][]byte, n)
	present := 0
	probe := func(slots []int) error {
		pend := make([]*rpc.Pending, len(slots))
		for i, s := range slots {
			pr := []provider.PageRef{{Blob: b.id, Write: write, RelPage: ref.SlotRel(s)}}
			pend[i] = b.c.pool.Go(ctx, addrs[s], provider.MGetPages, [][]byte{provider.EncodeGetPages(pr)}, nil)
		}
		for i, p := range pend {
			resp, err := p.Wait(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				continue
			}
			datas, err := provider.DecodeGetPages(resp, 1)
			if err != nil {
				continue // an answer that does not parse holds no survivor
			}
			slot, data := slots[i], datas[0]
			if data == nil || uint64(len(data)) != b.pageSize ||
				wire.Checksum64(data) != ref.Sums[slot] {
				continue // absent or corrupt shard: not a survivor
			}
			shards[slot] = data
			present++
		}
		return nil
	}
	if err := probe(ready); err != nil {
		return err
	}
	if present < int(ref.K) && len(open) > 0 {
		if err := probe(open); err != nil {
			return err
		}
	}

	code, err := erasure.Cached(int(ref.K), int(ref.M))
	if err != nil {
		return err
	}
	if err := code.Reconstruct(shards); err != nil {
		return fmt.Errorf("%w: stripe at rel %d of write %d: %v",
			ErrPageUnavailable, ref.FirstRel, write, err)
	}
	b.c.DegradedReads.Inc()

	var repairs []readRepair
	for _, it := range items {
		slot := ref.SlotOf(it.leaf.Leaf.RelPage)
		data := shards[slot]
		if wire.Checksum64(data) != it.leaf.Leaf.Checksum {
			return fmt.Errorf("%w: page %d reconstructed from stripe", ErrChecksum, it.leaf.Page)
		}
		copy(it.dst, data)
		b.c.ReconstructedPages.Inc()
		if it.deferred {
			continue // an open breaker is not a miss: nothing to restore
		}
		// Re-push the reconstructed shard to its home provider in the
		// background: a degraded read restores redundancy as a side
		// effect, exactly like replication's read-repair.
		// scheduleReadRepair copies data if (and only if) it schedules.
		repairs = append(repairs, readRepair{
			write:     write,
			rel:       it.leaf.Leaf.RelPage,
			data:      data,
			providers: []uint32{ref.Provs[slot]},
		})
	}
	if len(repairs) > 0 {
		b.c.scheduleReadRepair(b.id, repairs)
	}
	return nil
}
