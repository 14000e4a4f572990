package repair

// Stripe rebuilds (docs/erasure.md §5): pull the surviving shards of a
// stripe, reconstruct from any k verified ones, and re-push only the
// missing slots to their providers. Under rs(1,m) one surviving copy is
// the page, so the rebuild is a copy. Traffic to the degraded provider
// is exactly its lost shards — under rs(k,m) a provider holds a
// (k+m)/k / n share of the logical bytes, measurably less than
// rs(1,1)'s 2/n share (pinned by internal/cluster's
// TestErasureRepairIngestsLessThanReplication). First-wins idempotent
// puts keep re-pushes safe to over-approximate and to race with
// degraded reads doing the same. The same first-wins rule would keep a
// rotten copy — a slot its provider lists but serves no verified bytes
// for — so the agent deletes that copy before it pushes the rebuilt one.

import (
	"context"

	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/provider"
	"blob/internal/wire"
)

// stripeKey identifies one stripe of one write.
type stripeKey struct {
	write uint64
	first uint32
}

// stripeState is the repair agent's record of one stripe: its layout
// and which data slots live metadata still references.
type stripeState struct {
	write uint64
	ref   meta.StripeRef
	// refd marks data slots referenced by at least one surviving
	// version. A data slot no slot references has been garbage
	// collected — restoring it would resurrect a dead page, so the
	// agent leaves it missing (the stripe's loss tolerance degrades by
	// one for each collected slot; see docs/erasure.md §6).
	refd map[int]bool
}

// checkedSlots returns the slots the agent must keep healthy: every
// referenced data slot plus all parity slots.
func (st *stripeState) checkedSlots() []int {
	k, m := int(st.ref.K), int(st.ref.M)
	slots := make([]int, 0, k+m)
	for s := 0; s < k; s++ {
		if st.refd[s] {
			slots = append(slots, s)
		}
	}
	for s := k; s < k+m; s++ {
		slots = append(slots, s)
	}
	return slots
}

// repairStripe heals one stripe, given the MListWrites answers of the
// providers that answered RepairBlob's sweep: done when every checked
// slot is listed; otherwise fetch all reachable shards, reconstruct from
// any k verified survivors, and push exactly the missing slots back to
// their providers. A slot is suspect iff its provider did not answer or
// does not list it.
func (r *Repairer) repairStripe(ctx context.Context, rep *Report, blobID uint64,
	st *stripeState, addrs map[uint32]string, held map[uint32]provider.Holdings) {
	ref := st.ref
	n := int(ref.K) + int(ref.M)
	checked := st.checkedSlots()
	rep.PagesChecked += int64(len(checked))

	suspect := false
	for _, slot := range checked {
		h, ok := held[ref.Provs[slot]]
		if !ok {
			// Slots on unreachable providers cannot be restored this
			// pass; count them now so FullyRedundant stays honest, but
			// still try to heal the rest of the stripe below.
			rep.PagesMissing++
			rep.Unrepairable++
		}
		suspect = suspect || !h.Has(blobID, st.write, ref.SlotRel(slot))
	}
	if !suspect {
		return
	}

	// Fetch every reachable shard of the stripe (suspects included —
	// the fetch is both the verification of the suspicion and the
	// survivor gathering; extra shards cost one page read and raise
	// decode resilience). Batched per provider.
	type group struct {
		refs  []provider.PageRef
		slots []int
	}
	groups := make(map[uint32]*group)
	for slot := 0; slot < n; slot++ {
		id := ref.Provs[slot]
		if _, ok := addrs[id]; !ok {
			continue
		}
		g := groups[id]
		if g == nil {
			g = &group{}
			groups[id] = g
		}
		g.refs = append(g.refs, provider.PageRef{Blob: blobID, Write: st.write, RelPage: ref.SlotRel(slot)})
		g.slots = append(g.slots, slot)
	}
	shards := make([][]byte, n)
	rotten := make(map[int]bool) // listed, answered, and not verified
	for id, g := range groups {
		resp, err := r.c.Pool().Call(ctx, addrs[id], provider.MGetPages, provider.EncodeGetPages(g.refs))
		if err != nil {
			r.logf("repair: fetch stripe shards from provider %d: %v", id, err)
			continue
		}
		datas, err := provider.DecodeGetPages(resp, len(g.refs))
		if err != nil {
			continue
		}
		for i, data := range datas {
			slot := g.slots[i]
			if data == nil || wire.Checksum64(data) != ref.Sums[slot] {
				rotten[slot] = held[id].Has(blobID, st.write, ref.SlotRel(slot))
				continue
			}
			shards[slot] = data
			rep.SurvivorBytes += int64(len(data))
		}
	}

	// The slots to restore: checked, reachable, and absent in fact.
	var missing []int
	for _, slot := range checked {
		if _, ok := held[ref.Provs[slot]]; ok && shards[slot] == nil {
			missing = append(missing, slot)
		}
	}
	if len(missing) == 0 {
		return // suspicion not confirmed (a racing heal)
	}
	rep.PagesMissing += int64(len(missing))

	code, err := erasure.Cached(int(ref.K), int(ref.M))
	if err != nil {
		rep.Unrepairable += int64(len(missing))
		return
	}
	if err := code.Reconstruct(shards); err != nil {
		// Fewer than k survivors: the stripe is lost until a provider
		// returns with its shards intact.
		r.logf("repair: stripe at rel %d of write %d: %v", ref.FirstRel, st.write, err)
		rep.Unrepairable += int64(len(missing))
		return
	}

	// Push exactly the missing slots, batched per provider, each rotten
	// copy deleted first.
	type push struct {
		rels   []uint32
		datas  [][]byte
		rotten []uint32
	}
	pushes := make(map[uint32]*push)
	for _, slot := range missing {
		id := ref.Provs[slot]
		p := pushes[id]
		if p == nil {
			p = &push{}
			pushes[id] = p
		}
		p.rels = append(p.rels, ref.SlotRel(slot))
		p.datas = append(p.datas, shards[slot])
		if rotten[slot] {
			p.rotten = append(p.rotten, ref.SlotRel(slot))
		}
	}
	for id, p := range pushes {
		if len(p.rotten) > 0 {
			del := provider.EncodeDeletePages(blobID, st.write, p.rotten)
			if _, err := r.c.Pool().Call(ctx, addrs[id], provider.MDeletePages, del); err != nil {
				r.logf("repair: delete %d rotten shards on provider %d: %v", len(p.rotten), id, err)
				rep.Unrepairable += int64(len(p.rels))
				continue
			}
		}
		segs := provider.EncodePutPagesVec(blobID, st.write, p.rels, p.datas)
		if _, err := r.c.Pool().Go(ctx, addrs[id], provider.MPutPages, segs, nil).Wait(ctx); err != nil {
			r.logf("repair: push %d reconstructed shards to provider %d: %v", len(p.rels), id, err)
			rep.Unrepairable += int64(len(p.rels))
			continue
		}
		rep.PagesReconstructed += int64(len(p.rels))
		for _, d := range p.datas {
			rep.ReconstructedBytes += int64(len(d))
		}
	}
}
