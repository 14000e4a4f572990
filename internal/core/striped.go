package core

// Stripe paths (docs/erasure.md): the write side cuts every write into
// rs(k,m) stripes, encodes parity — a copy of the page when k = 1 — and
// fans all k+m shards out to distinct providers; the read side serves a
// k>=2 page its own slot did not by pulling any k surviving shards of
// its stripe and decoding inline. Parity pages are ordinary provider
// pages keyed in the high (ParityFlag) half of the write's rel-page
// space, so every PageStore backend handles them untouched.

import (
	"context"
	"fmt"

	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/provider"
	"blob/internal/rpc"
	"blob/internal/trace"
	"blob/internal/wire"
)

// putStriped is the write fan-out: one allocation of k+m distinct
// providers per stripe, then every stripe's parity is encoded — or, for
// a one-page stripe, aliased to its page, since rs(1,m) parity is a
// copy — then the shard pages go out grouped by provider across
// stripes: one MPutPages per provider per write. It returns the leaf of
// each page of the write, by rel, for the metadata build.
//
// The manager caps a group at the live provider count. Under k = 1 the
// write keeps the copies it could place, and its leaves record them as
// the stripe's slots; under k >= 2 a stripe spread over fewer providers
// than shards would silently lose the fault tolerance the mode
// promises, so the write fails loudly.
func (b *Blob) putStriped(ctx context.Context, writeID uint64, buf []byte) (func(rel uint64) meta.LeafData, error) {
	k, m := b.red.K, b.red.M
	npages := uint64(len(buf)) / b.pageSize
	nStripes := erasure.NumStripes(npages, k)

	alloc, err := b.allocateProviders(ctx, int(nStripes), k+m)
	if err != nil {
		return nil, err
	}
	group := len(alloc.IDs) / int(nStripes)
	switch {
	case k == 1:
		m = group - 1
	case group < k+m:
		return nil, fmt.Errorf("core: rs(%d,%d) needs %d distinct live providers per stripe, placement yielded %d",
			k, m, k+m, group)
	}

	var refs []*meta.StripeRef
	var sums []uint64
	if k == 1 {
		sums = make([]uint64, npages)
	} else {
		refs = make([]*meta.StripeRef, nStripes)
	}
	var parityBytes int64
	// One entry per shard page: its provider, its rel and its bytes.
	nShards := int(npages) + int(nStripes)*m
	ids := make([]uint32, 0, nShards)
	rels := make([]uint32, 0, nShards)
	datas := make([][]byte, 0, nShards)
	for s := uint64(0); s < nStripes; s++ {
		width := erasure.StripeWidth(s, npages, k)
		first := len(datas)
		for i := 0; i < width; i++ {
			p := s*uint64(k) + uint64(i)
			datas = append(datas, buf[p*b.pageSize:(p+1)*b.pageSize])
			rels = append(rels, uint32(p))
		}
		if width == 1 {
			for range m {
				datas = append(datas, datas[first])
			}
		} else {
			code, err := erasure.Cached(width, m)
			if err != nil {
				return nil, err
			}
			parity, err := code.Encode(datas[first:])
			if err != nil {
				return nil, err
			}
			datas = append(datas, parity...)
			parityBytes += int64(m) * int64(b.pageSize)
		}
		for j := range m {
			rels = append(rels, erasure.ParityRel(uint32(s), j, m))
		}
		provs := alloc.IDs[int(s)*group : int(s)*group+width+m]
		ids = append(ids, provs...)
		if k == 1 {
			sums[s] = wire.Checksum64(datas[first])
			continue
		}
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
	if k == 1 {
		return func(rel uint64) meta.LeafData {
			return meta.LeafData{
				Write:     writeID,
				RelPage:   uint32(rel),
				Providers: alloc.IDs[int(rel)*group : int(rel+1)*group],
				Checksum:  sums[rel],
			}
		}, nil
	}
	return func(rel uint64) meta.LeafData {
		ref := refs[rel/uint64(k)]
		slot := int(uint32(rel) - ref.FirstRel)
		return meta.LeafData{
			Write:     writeID,
			RelPage:   uint32(rel),
			Providers: ref.Provs[slot : slot+1 : slot+1],
			Checksum:  ref.Sums[slot],
			Stripe:    ref,
		}
	}, nil
}

// serveDegraded serves k>=2 pages whose own slot did not: each stripe
// is decoded once from its other slots, however many of its pages the
// read needs, and a page its provider definitively missed is re-pushed
// there in the background, restoring redundancy as a side effect of
// reading.
func (b *Blob) serveDegraded(ctx context.Context, items []fetchItem, repairs *[]readRepair) (err error) {
	ctx, sop := trace.Start(ctx, "read.stripe")
	if sop != nil {
		sop.Notef("degraded: %d pages", len(items))
		defer func() { sop.EndErr(err) }()
	}
	type stripeKey struct {
		write uint64
		first uint32
	}
	byStripe := make(map[stripeKey][]fetchItem)
	for _, it := range items {
		k := stripeKey{it.leaf.Leaf.Write, it.leaf.Leaf.Stripe.FirstRel}
		byStripe[k] = append(byStripe[k], it)
	}
	for _, its := range byStripe {
		ref := its[0].leaf.Leaf.Stripe
		// Slots already asked are not re-probed; an unasked page's slot
		// is a survivor like any other.
		var skip []int
		for _, it := range its {
			if !it.unasked {
				skip = append(skip, ref.SlotOf(it.leaf.Leaf.RelPage))
			}
		}
		shards, err := b.reconstructStripe(ctx, &its[0].leaf.Leaf, skip)
		if err != nil {
			return err
		}
		for _, it := range its {
			data := shards[ref.SlotOf(it.leaf.Leaf.RelPage)]
			if wire.Checksum64(data) != it.leaf.Leaf.Checksum {
				return fmt.Errorf("%w: page %d reconstructed from stripe", ErrChecksum, it.leaf.Page)
			}
			copy(it.dst, data)
			b.c.ReconstructedPages.Inc()
			for _, id := range it.missed {
				*repairs = append(*repairs, readRepair{write: it.leaf.Leaf.Write, rel: it.leaf.Leaf.RelPage, data: data, provider: id})
			}
		}
	}
	return nil
}

// reconstructStripe decodes the k>=2 stripe leaf l belongs to by
// pulling its slots other than skip and returns every slot's bytes. Any
// k verified shards suffice; fewer fails with ErrPageUnavailable. A
// survivor whose provider's breaker is open is asked only when the
// others leave the stripe short of k shards.
func (b *Blob) reconstructStripe(ctx context.Context, l *meta.LeafData, skip []int) ([][]byte, error) {
	ref := l.Stripe
	n := int(ref.K) + int(ref.M)
	skipped := make([]bool, n)
	for _, s := range skip {
		skipped[s] = true
	}

	// A stripe's slots live on distinct providers (putStriped), so each
	// survivor is asked on its own: first those whose provider's breaker
	// is closed, then, if they leave the stripe short, the open ones.
	var ready, open []int
	addrs := make([]string, n)
	for s := 0; s < n; s++ {
		if skipped[s] {
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
			pr := []provider.PageRef{{Blob: b.id, Write: l.Write, RelPage: ref.SlotRel(s)}}
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
		return nil, err
	}
	if present < int(ref.K) && len(open) > 0 {
		if err := probe(open); err != nil {
			return nil, err
		}
	}

	code, err := erasure.Cached(int(ref.K), int(ref.M))
	if err != nil {
		return nil, err
	}
	if err := code.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("%w: stripe at rel %d of write %d: %v",
			ErrPageUnavailable, ref.FirstRel, l.Write, err)
	}
	b.c.DegradedReads.Inc()
	return shards, nil
}
