package repair

// Reconstruction plans for erasure-coded stripes (docs/erasure.md §5).
// Replicated pages heal by provider-to-provider pulls (repair.go); an
// rs(k,m) shard has no replica to pull, so the agent rebuilds it: pull
// any k surviving shards of the stripe, decode, and re-push only the
// missing slots to their providers. Traffic to the degraded provider is
// exactly its lost shards — under rs(k,m) a provider holds a (k+m)/k / n
// share of the logical bytes, measurably less than a replica's r/n
// share (pinned against 2x replication by internal/cluster's
// TestErasureRepairIngestsLessThanReplication). First-wins idempotent
// puts keep re-pushes safe to over-approximate and to race with
// degraded reads doing the same.

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
	ref   *meta.StripeRef
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

// repairStripes diagnoses and heals every collected stripe, folding
// results into rep. holdings/heldBy/reachable come from the shared
// MListWrites sweep in RepairBlob.
func (r *Repairer) repairStripes(ctx context.Context, rep *Report, blobID uint64,
	stripes map[stripeKey]*stripeState, addrs map[uint32]string,
	holdings map[uint32]provider.Holdings, heldBy map[uint32]map[uint64]int64,
	reachable map[uint32]bool) {
	for _, st := range stripes {
		r.repairStripe(ctx, rep, blobID, st, addrs, holdings, heldBy, reachable)
	}
}

// slotSuspect reports whether provider holdings fail to affirm the
// slot's presence. Conservative in the pull-everything direction, like
// diagnose: a suspect slot is verified by an actual fetch before any
// decode work happens, so over-suspicion costs one page read, never a
// wrong reconstruction.
func slotSuspect(h provider.Holdings, held int64, blob, write uint64, rel uint32) bool {
	if held == 0 {
		return true // write not listed at all
	}
	return !h.Digest.MightContain(blob, write, rel)
}

// repairStripe heals one stripe: settle it from digests when every
// checked slot is affirmed; otherwise fetch all reachable shards,
// reconstruct from any k verified survivors, and push exactly the
// missing slots back to their providers.
func (r *Repairer) repairStripe(ctx context.Context, rep *Report, blobID uint64,
	st *stripeState, addrs map[uint32]string,
	holdings map[uint32]provider.Holdings, heldBy map[uint32]map[uint64]int64,
	reachable map[uint32]bool) {
	ref := st.ref
	n := int(ref.K) + int(ref.M)
	checked := st.checkedSlots()
	rep.PagesChecked += int64(len(checked))

	suspects := make(map[int]bool)
	anyUnreachable := false
	for _, slot := range checked {
		id := ref.Provs[slot]
		if !reachable[id] {
			anyUnreachable = true
			suspects[slot] = true
			continue
		}
		if slotSuspect(holdings[id], heldBy[id][st.write], blobID, st.write, ref.SlotRel(slot)) {
			suspects[slot] = true
		}
	}
	if len(suspects) == 0 {
		rep.BloomSkips += int64(len(checked)) // settled without page I/O
		return
	}
	if anyUnreachable {
		// Slots on unreachable providers cannot be restored this pass;
		// count them now so FullyRedundant stays honest, but still try
		// to heal the rest of the stripe below.
		for _, slot := range checked {
			if !reachable[ref.Provs[slot]] {
				rep.PagesMissing++
				rep.Unrepairable++
			}
		}
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
				continue
			}
			shards[slot] = data
			rep.SurvivorBytes += int64(len(data))
		}
	}

	// The slots to restore: checked, reachable, and absent in fact.
	var missing []int
	for _, slot := range checked {
		if shards[slot] == nil && reachable[ref.Provs[slot]] {
			missing = append(missing, slot)
		}
	}
	if len(missing) == 0 {
		return // suspicion not confirmed (stale digest, racing heal)
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

	// Push exactly the missing slots, batched per provider.
	type push struct {
		rels  []uint32
		datas [][]byte
		slots []int
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
		p.slots = append(p.slots, slot)
	}
	for id, p := range pushes {
		segs := provider.EncodePutPagesVec(blobID, st.write, p.rels, p.datas)
		if _, err := r.c.Pool().Go(ctx, addrs[id], provider.MPutPages, segs).Wait(ctx); err != nil {
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
