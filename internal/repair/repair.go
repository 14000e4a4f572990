// Package repair implements the replica repair agent: the active half
// of the provider-side repair protocol specified in docs/replication.md.
// The agent walks a blob's metadata to learn where every page replica
// should live, asks each involved provider what it actually holds
// (MListWrites — an exact write list plus a bloom digest, never full
// page lists), and directs each degraded provider to pull its missing
// pages straight from a healthy peer (MPullPages). Page bytes flow
// provider-to-provider only; the agent moves metadata-sized messages,
// so one small process can heal a large cluster.
//
// Repair is safe to over-approximate and to re-run: providers store
// pulled pages with the same first-wins idempotent puts the write path
// uses, and the pulling provider skips pages it already holds. A second
// pass reporting zero missing pages is therefore the agent's
// convergence proof, and what the tests assert.
package repair

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"blob/internal/core"
	"blob/internal/events"
	"blob/internal/meta"
	"blob/internal/mstore"
	"blob/internal/provider"
	"blob/internal/trace"
	"blob/internal/vmanager"
)

// Repairer drives repair through an ordinary client connection: the
// metadata traversal uses the client's mstore, and the control RPCs its
// connection pool. It holds no state between runs.
type Repairer struct {
	c *core.Client
	// Log, when set, receives progress lines (blobnode wires its logger).
	Log func(format string, args ...any)
	// Journal, when set, records sweep-level cluster events
	// (repair-start/finish, redundancy degradation) for the monitor.
	Journal *events.Journal
}

// New creates a repair agent over an established client.
func New(c *core.Client) *Repairer { return &Repairer{c: c} }

func (r *Repairer) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
	}
}

// Report summarizes one repair pass.
type Report struct {
	// PagesChecked counts (page, replica) slots examined; PagesMissing
	// how many were found degraded. PagesRepaired/BytesPulled are the
	// slots restored and the page bytes that moved between providers for
	// them; PagesSkipped were reported already-held by the pulling
	// provider (a racing read-repair or earlier pass got there first).
	PagesChecked  int64
	PagesMissing  int64
	PagesRepaired int64
	BytesPulled   int64
	PagesSkipped  int64
	// BloomSkips counts slots settled from MListWrites results alone —
	// no page data RPC — either ruled healthy (counts and digest agree)
	// or ruled definitely-missing by the digest.
	BloomSkips int64
	// Erasure-coded stripes (docs/erasure.md): PagesReconstructed counts
	// shards the agent rebuilt by decoding k survivors and re-pushed to
	// their providers; ReconstructedBytes is the payload pushed for
	// them (the bytes the degraded providers had to ingest — compare
	// with BytesPulled for replication); SurvivorBytes the shard bytes
	// the agent read to feed the decodes.
	PagesReconstructed int64
	ReconstructedBytes int64
	SurvivorBytes      int64
	// Unrepairable counts slots that stayed degraded: no healthy peer
	// holds the page, or the degraded provider is unreachable.
	Unrepairable int64
	// ProviderErrors counts providers that could not be queried or
	// instructed (down or erroring); their slots count as Unrepairable.
	ProviderErrors int
}

// FullyRedundant reports whether the pass left every replica slot
// restored: nothing unrepairable and every provider answerable. (Every
// missing slot that was fixed shows up in PagesRepaired or PagesSkipped;
// anything else lands in Unrepairable.)
func (rep Report) FullyRedundant() bool {
	return rep.Unrepairable == 0 && rep.ProviderErrors == 0
}

// pageNeed is one page's placement: where its replicas must live.
type pageNeed struct {
	write uint64
	rel   uint32
	sum   uint64
	provs []uint32
}

// RepairBlob runs one repair pass over every published version of one
// blob and returns what it found and fixed. A pass is idempotent;
// callers needing a convergence proof run a second pass and check
// Report.FullyRedundant with zero missing.
func (r *Repairer) RepairBlob(ctx context.Context, blobID uint64) (rep Report, err error) {
	ctx, op := r.c.Tracer().Root(ctx, "repair.RepairBlob")
	if op != nil {
		defer func() { op.EndErr(err) }()
	}
	b, err := r.c.OpenBlob(ctx, blobID)
	if err != nil {
		return rep, err
	}
	latest, _, err := b.Latest(ctx)
	if err != nil {
		return rep, err
	}
	if latest == 0 {
		return rep, nil // nothing published, nothing to repair
	}

	// The written extents, from the version manager's history: metadata
	// is walked only over pages some write actually covered, never the
	// whole virtual blob (a TB-scale blob is almost entirely zero pages
	// the tree resolves without any provider holding anything).
	hist, err := r.c.VersionManager().History(ctx, blobID, 0, latest)
	if err != nil {
		return rep, err
	}
	extents := mergeExtents(hist)
	if len(extents) == 0 {
		return rep, nil
	}

	// Collect every page's placement across all published versions.
	// (write, rel) identifies page content; the same pair always maps to
	// the same replicas and checksum, so later versions just dedupe.
	type pageKey struct {
		write uint64
		rel   uint32
	}
	needs := make(map[pageKey]pageNeed)
	stripes := make(map[stripeKey]*stripeState)
walk:
	for v := latest; v >= 1; v-- {
		for _, ext := range extents {
			leaves, err := b.ReadMeta(ctx, ext.First*b.PageSize(), ext.Count*b.PageSize(), v)
			if err != nil {
				if v < latest && errors.Is(err, mstore.ErrMissingNode) {
					// An older version whose nodes are gone has been
					// garbage collected (versions collect bottom-up), so
					// everything below it is gone too: stop walking back.
					// Its surviving pages are exactly the ones later
					// versions still reference — already gathered above.
					break walk
				}
				// Anything else — latest's tree, or a transient metadata
				// failure at any version — must fail the pass: silently
				// shrinking the walk would let the report claim full
				// redundancy for slots it never examined.
				return rep, fmt.Errorf("repair: metadata of blob %d v%d: %w", blobID, v, err)
			}
			for _, l := range leaves {
				if l.Leaf.Write == 0 {
					continue // never-written page: nothing stored anywhere
				}
				if s := l.Leaf.Stripe; s != nil {
					// Erasure-coded page: repaired per stripe, by
					// reconstruction rather than replica pulls.
					sk := stripeKey{l.Leaf.Write, s.FirstRel}
					st := stripes[sk]
					if st == nil {
						st = &stripeState{write: l.Leaf.Write, ref: s, refd: make(map[int]bool)}
						stripes[sk] = st
					}
					if slot := s.SlotOf(l.Leaf.RelPage); slot >= 0 {
						st.refd[slot] = true
					}
					continue
				}
				k := pageKey{l.Leaf.Write, l.Leaf.RelPage}
				if _, ok := needs[k]; !ok {
					needs[k] = pageNeed{
						write: l.Leaf.Write, rel: l.Leaf.RelPage,
						sum: l.Leaf.Checksum, provs: l.Leaf.Providers,
					}
				}
			}
		}
	}
	if len(needs) == 0 && len(stripes) == 0 {
		return rep, nil
	}

	// Resolve provider addresses once.
	infos, err := r.c.AllProviders(ctx)
	if err != nil {
		return rep, err
	}
	addrs := make(map[uint32]string, len(infos))
	for _, p := range infos {
		addrs[p.ID] = p.Addr
	}

	// Group: provider → write → the pages it must hold.
	perProv := make(map[uint32]map[uint64][]pageNeed)
	for _, n := range needs {
		for _, id := range n.provs {
			wm := perProv[id]
			if wm == nil {
				wm = make(map[uint64][]pageNeed)
				perProv[id] = wm
			}
			wm[n.write] = append(wm[n.write], n)
		}
	}

	// The MListWrites scope: every (provider, write) replication needs,
	// plus every (provider, write) an erasure stripe's checked slots
	// touch.
	wantWrites := make(map[uint32]map[uint64]bool)
	addWant := func(id uint32, w uint64) {
		wm := wantWrites[id]
		if wm == nil {
			wm = make(map[uint64]bool)
			wantWrites[id] = wm
		}
		wm[w] = true
	}
	for id, wm := range perProv {
		for w := range wm {
			addWant(id, w)
		}
	}
	for _, st := range stripes {
		for _, slot := range st.checkedSlots() {
			addWant(st.ref.Provs[slot], st.write)
		}
	}

	// Ask every involved provider what it holds (one RPC each). heldBy
	// indexes each response's write list for O(1) lookups in the
	// diagnosis loops below.
	holdings := make(map[uint32]provider.Holdings)
	heldBy := make(map[uint32]map[uint64]int64)
	reachable := make(map[uint32]bool)
	for id, wm := range wantWrites {
		addr, ok := addrs[id]
		if !ok {
			rep.ProviderErrors++
			continue
		}
		refs := make([]provider.WriteRef, 0, len(wm))
		for w := range wm {
			refs = append(refs, provider.WriteRef{Blob: blobID, Write: w})
		}
		resp, err := r.c.Pool().Call(ctx, addr, provider.MListWrites, provider.EncodeListWrites(refs))
		if err != nil {
			r.logf("repair: list writes on provider %d (%s): %v", id, addr, err)
			rep.ProviderErrors++
			continue
		}
		h, err := provider.DecodeListWrites(resp)
		if err != nil {
			rep.ProviderErrors++
			continue
		}
		held := make(map[uint64]int64, len(h.Writes))
		for _, wh := range h.Writes {
			if wh.Blob == blobID {
				held[wh.Write] = wh.Pages
			}
		}
		holdings[id] = h
		heldBy[id] = held
		reachable[id] = true
	}

	// Diagnose and pull, provider by provider.
	for id, wm := range perProv {
		if !reachable[id] {
			for _, ns := range wm {
				rep.PagesChecked += int64(len(ns))
				rep.Unrepairable += int64(len(ns))
			}
			continue
		}
		h := holdings[id]
		// One MPullPages per (write, first-choice source) batch — the
		// fast path. A batch that comes back short (bloom false positive
		// at the source, concurrent GC, source lost the page) degrades to
		// per-page pulls over each page's remaining replicas.
		type pullKey struct {
			write  uint64
			source uint32
		}
		pulls := make(map[pullKey][]pageNeed)
		for w, ns := range wm {
			rep.PagesChecked += int64(len(ns))
			missing := diagnose(h, heldBy[id][w], blobID, w, ns)
			rep.BloomSkips += int64(len(ns) - len(missing))
			for _, n := range missing {
				rep.PagesMissing++
				cands := eligibleSources(holdings, heldBy, reachable, n, id, blobID)
				if len(cands) == 0 {
					rep.Unrepairable++
					continue
				}
				pulls[pullKey{w, cands[0]}] = append(pulls[pullKey{w, cands[0]}], n)
			}
		}
		for pk, ns := range pulls {
			refs := make([]provider.PullRef, len(ns))
			for i, n := range ns {
				refs[i] = provider.PullRef{Rel: n.rel, Checksum: n.sum}
			}
			res, err := r.pull(ctx, addrs[id], addrs[pk.source], blobID, pk.write, refs)
			if err != nil {
				r.logf("repair: pull %d pages onto provider %d: %v", len(refs), id, err)
				res = provider.PullResult{} // resolve every page below
			}
			rep.PagesRepaired += res.Pulled
			rep.BytesPulled += res.Bytes
			rep.PagesSkipped += res.Skipped
			if res.Pulled+res.Skipped >= int64(len(refs)) {
				continue // every slot covered
			}
			// Short batch: the response doesn't say which pages failed,
			// so resolve each one individually against every candidate
			// source in turn. The degraded provider skips pages the batch
			// already landed, so re-asking is a free membership check;
			// only genuinely new pulls are counted (skips here would
			// double-count the batch's work).
			for _, n := range ns {
				resolved := false
				for _, src := range eligibleSources(holdings, heldBy, reachable, n, id, blobID) {
					one, err := r.pull(ctx, addrs[id], addrs[src], blobID, pk.write,
						[]provider.PullRef{{Rel: n.rel, Checksum: n.sum}})
					if err != nil {
						continue // next candidate
					}
					if one.Pulled > 0 {
						rep.PagesRepaired += one.Pulled
						rep.BytesPulled += one.Bytes
					}
					if one.Pulled+one.Skipped > 0 {
						resolved = true
						break
					}
				}
				if !resolved {
					rep.Unrepairable++
				}
			}
		}
	}
	// Erasure-coded stripes: reconstruction plans (reconstruct.go).
	r.repairStripes(ctx, &rep, blobID, stripes, addrs, holdings, heldBy, reachable)

	if rep.PagesMissing > 0 {
		r.logf("repair: blob %d: %d/%d replica slots degraded, %d repaired (%d bytes pulled), %d reconstructed (%d bytes pushed), %d unrepairable",
			blobID, rep.PagesMissing, rep.PagesChecked, rep.PagesRepaired, rep.BytesPulled,
			rep.PagesReconstructed, rep.ReconstructedBytes, rep.Unrepairable)
	}
	return rep, nil
}

// mergeExtents folds the history's written page ranges into a sorted,
// disjoint cover (aborted writes carry no surviving pages and are
// skipped). The repair walk reads metadata only inside this cover.
func mergeExtents(hist []vmanager.WriteRecord) []meta.PageRange {
	var rs []meta.PageRange
	for _, rec := range hist {
		if !rec.Aborted && rec.Range.Count > 0 {
			rs = append(rs, rec.Range)
		}
	}
	if len(rs) == 0 {
		return nil
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].First < rs[j].First })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.First <= last.First+last.Count {
			if end := r.First + r.Count; end > last.First+last.Count {
				last.Count = end - last.First
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// diagnose returns the pages of one write that provider holdings show
// missing. The write list is exact, the digest conservative, and counts
// reconcile the two: a write the provider doesn't list is entirely
// missing; a listed write's definite misses come from the digest; and
// whenever a count proves more pages gone than the digest names, every
// page is pulled, because the pulling provider skips the ones it has,
// so over-approximation costs one RPC, never correctness. A slot is
// trusted healthy only when the count covers the expectation AND the
// digest clears every page; the residual unsoundness (dead pages
// inflating the count while a bloom false positive hides the real miss)
// is the documented ~1%-of-rare window read-repair closes on access.
func diagnose(h provider.Holdings, held int64, blob, write uint64, ns []pageNeed) []pageNeed {
	if held == 0 {
		return ns
	}
	var missing []pageNeed
	for _, n := range ns {
		if !h.Digest.MightContain(blob, write, n.rel) {
			missing = append(missing, n)
		}
	}
	if held >= int64(len(ns)) {
		return missing // count covers and digest clears the rest
	}
	if int64(len(ns))-held > int64(len(missing)) {
		// The digest under-detected (false positives): the count proves
		// more pages are gone than the digest names. Pull everything.
		return ns
	}
	return missing
}

// pull issues one MPullPages: targetAddr pulls refs of (blob, write)
// from srcAddr.
func (r *Repairer) pull(ctx context.Context, targetAddr, srcAddr string,
	blob, write uint64, refs []provider.PullRef) (provider.PullResult, error) {
	pctx, op := trace.Start(ctx, "repair.pull")
	op.Notef("%d pages from %s", len(refs), srcAddr)
	body := provider.EncodePullPages(srcAddr, blob, write, refs)
	resp, err := r.c.Pool().Call(pctx, targetAddr, provider.MPullPages, body)
	op.EndErr(err)
	if err != nil {
		return provider.PullResult{}, err
	}
	return provider.DecodePullPages(resp)
}

// eligibleSources orders the healthy peers one page could be pulled
// from: first the replicas whose holdings affirmatively suggest the
// page (listed write, digest not ruling it out), then — so a bloom
// false positive at one source can never strand a slot a later replica
// holds — every other reachable replica as a long-shot fallback.
func eligibleSources(holdings map[uint32]provider.Holdings, heldBy map[uint32]map[uint64]int64,
	reachable map[uint32]bool, n pageNeed, target uint32, blob uint64) []uint32 {
	var likely, longshot []uint32
	for _, id := range n.provs {
		if id == target || !reachable[id] {
			continue
		}
		if heldBy[id][n.write] > 0 && holdings[id].Digest.MightContain(blob, n.write, n.rel) {
			likely = append(likely, id)
		} else {
			longshot = append(longshot, id)
		}
	}
	return append(likely, longshot...)
}

// RepairAll runs RepairBlob over a set of blobs, merging reports. The
// first hard error aborts (per-provider failures are soft and counted
// in the report).
func (r *Repairer) RepairAll(ctx context.Context, blobs []uint64) (Report, error) {
	r.Journal.Emit(events.SevInfo, events.RepairStart, int64(len(blobs)),
		"sweep over %d blobs", len(blobs))
	var total Report
	for _, id := range blobs {
		rep, err := r.RepairBlob(ctx, id)
		total.PagesChecked += rep.PagesChecked
		total.PagesMissing += rep.PagesMissing
		total.PagesRepaired += rep.PagesRepaired
		total.BytesPulled += rep.BytesPulled
		total.PagesSkipped += rep.PagesSkipped
		total.BloomSkips += rep.BloomSkips
		total.PagesReconstructed += rep.PagesReconstructed
		total.ReconstructedBytes += rep.ReconstructedBytes
		total.SurvivorBytes += rep.SurvivorBytes
		total.Unrepairable += rep.Unrepairable
		total.ProviderErrors += rep.ProviderErrors
		if err != nil {
			r.emitSweep(total, err)
			return total, err
		}
	}
	r.emitSweep(total, nil)
	return total, nil
}

// emitSweep records the sweep's outcome in the journal: what was found
// degraded, what reconstruction rebuilt, what stayed broken, and the
// redundancy debt left outstanding (RepairFinish.Val — the monitor's
// debt source).
func (r *Repairer) emitSweep(total Report, err error) {
	if r.Journal == nil {
		return
	}
	if total.PagesMissing > 0 {
		r.Journal.Emit(events.SevWarn, events.RedundancyDegraded, total.PagesMissing,
			"sweep found %d degraded slots (%d checked)", total.PagesMissing, total.PagesChecked)
	}
	if total.PagesReconstructed > 0 {
		r.Journal.Emit(events.SevInfo, events.PagesReconstructed, total.PagesReconstructed,
			"reconstructed %d pages (%d bytes pushed, %d survivor bytes read)",
			total.PagesReconstructed, total.ReconstructedBytes, total.SurvivorBytes)
	}
	if total.Unrepairable > 0 {
		r.Journal.Emit(events.SevError, events.Unrepairable, total.Unrepairable,
			"%d slots unrepairable (%d provider errors)", total.Unrepairable, total.ProviderErrors)
	}
	outstanding := total.Unrepairable
	sev := events.SevInfo
	detail := ""
	if err != nil {
		sev = events.SevError
		detail = "; aborted: " + err.Error()
		// An aborted sweep proves nothing about unexamined slots: keep
		// whatever degradation it saw on the books.
		if m := total.PagesMissing - total.PagesRepaired - total.PagesSkipped - total.PagesReconstructed; m > outstanding {
			outstanding = m
		}
	} else if outstanding > 0 {
		sev = events.SevWarn
	}
	r.Journal.Emit(sev, events.RepairFinish, outstanding,
		"sweep done: %d repaired, %d reconstructed, %d outstanding%s",
		total.PagesRepaired, total.PagesReconstructed, outstanding, detail)
}
