// Package repair implements the replica repair agent: the active half
// of the provider-side repair protocol specified in docs/replication.md.
// The agent walks a blob's metadata to learn where every page replica
// should live, asks each involved provider which pages of those writes
// it actually holds (MListWrites, answered from the provider's index),
// and directs each degraded provider to pull its missing pages straight
// from a healthy peer (MPullPages). Page bytes flow provider-to-provider
// only; the agent moves metadata-sized messages, so one small process
// can heal a large cluster.
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
	"time"

	"blob/internal/core"
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
	// Tracer, when set, records sweep-level cluster events
	// (repair-start/finish, redundancy degradation) for the monitor.
	Tracer *trace.Tracer
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
	// Blobs is the number of blobs the pass covered.
	Blobs int
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

	// Ask every involved provider which pages of those writes it holds
	// (one RPC each). The providers that answer are the reachable ones.
	held := make(map[uint32]provider.Holdings)
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
		held[id] = h
	}

	// Diagnose and pull, provider by provider: a slot is missing iff its
	// provider answered and does not list its rel.
	for id, wm := range perProv {
		h, ok := held[id]
		if !ok {
			for _, ns := range wm {
				rep.PagesChecked += int64(len(ns))
				rep.Unrepairable += int64(len(ns))
			}
			continue
		}
		// One MPullPages per (write, first source) batch — the fast path.
		// A batch that comes back short (concurrent GC, a source serving
		// bytes that fail the checksum) degrades to per-page pulls over
		// each page's remaining sources.
		type pullKey struct {
			write  uint64
			source uint32
		}
		pulls := make(map[pullKey][]pageNeed)
		for w, ns := range wm {
			rep.PagesChecked += int64(len(ns))
			for _, n := range ns {
				if h.Has(blobID, w, n.rel) {
					continue
				}
				rep.PagesMissing++
				srcs := sources(held, blobID, n, id)
				if len(srcs) == 0 {
					rep.Unrepairable++
					continue
				}
				pulls[pullKey{w, srcs[0]}] = append(pulls[pullKey{w, srcs[0]}], n)
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
			// so resolve each one individually against every source in
			// turn. The degraded provider skips pages the batch already
			// landed, so re-asking is a free membership check; only
			// genuinely new pulls are counted (skips here would
			// double-count the batch's work).
			for _, n := range ns {
				resolved := false
				for _, src := range sources(held, blobID, n, id) {
					one, err := r.pull(ctx, addrs[id], addrs[src], blobID, pk.write,
						[]provider.PullRef{{Rel: n.rel, Checksum: n.sum}})
					if err != nil {
						continue // next source
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
	for _, st := range stripes {
		r.repairStripe(ctx, &rep, blobID, st, addrs, held)
	}

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

// sources lists the replicas page n can be pulled from onto target: its
// other providers that answered and list it, in the leaf's order.
func sources(held map[uint32]provider.Holdings, blob uint64, n pageNeed, target uint32) []uint32 {
	var out []uint32
	for _, id := range n.provs {
		if id != target && held[id].Has(blob, n.write, n.rel) {
			out = append(out, id)
		}
	}
	return out
}

// Sweep runs one repair pass over the listed blobs, or over every blob
// the version manager knows when none are listed. It first re-learns
// the metadata ring: the one the client booted with may predate some
// metadata providers' registration, and a stale ring hashes tree nodes
// to the wrong provider.
func (r *Repairer) Sweep(ctx context.Context, blobs ...uint64) (Report, error) {
	if err := r.c.Meta().Refresh(ctx); err != nil {
		r.logf("repair: refresh metadata ring: %v", err)
	}
	if len(blobs) == 0 {
		var err error
		if blobs, err = r.c.VersionManager().Blobs(ctx); err != nil {
			return Report{}, fmt.Errorf("list blobs: %w", err)
		}
	}
	return r.RepairAll(ctx, blobs)
}

// Run sweeps every interval, and at once whenever wake fires (the
// provider manager's DeathWatch saw a provider die: a second loss inside
// the ticker's window is the data loss repair exists to prevent), until
// stop closes. A sweep has max(4 × interval, 30s) to finish.
func (r *Repairer) Run(stop, wake <-chan struct{}, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	timeout := max(4*interval, 30*time.Second)
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		case <-wake:
			r.logf("repair: provider death detected, sweeping now")
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		rep, err := r.Sweep(ctx)
		cancel()
		if err != nil {
			r.logf("repair: sweep: %v", err)
		}
		if rep.PagesMissing > 0 {
			r.logf("repair: %d slots degraded, %d repaired (%d bytes pulled), %d reconstructed (%d bytes), %d unrepairable",
				rep.PagesMissing, rep.PagesRepaired, rep.BytesPulled,
				rep.PagesReconstructed, rep.ReconstructedBytes, rep.Unrepairable)
		}
	}
}

// RepairAll runs RepairBlob over a set of blobs, merging reports. The
// first hard error aborts (per-provider failures are soft and counted
// in the report).
func (r *Repairer) RepairAll(ctx context.Context, blobs []uint64) (Report, error) {
	r.Tracer.Emit(trace.SevInfo, trace.RepairStart, int64(len(blobs)),
		"sweep over %d blobs", len(blobs))
	total := Report{Blobs: len(blobs)}
	for _, id := range blobs {
		rep, err := r.RepairBlob(ctx, id)
		total.PagesChecked += rep.PagesChecked
		total.PagesMissing += rep.PagesMissing
		total.PagesRepaired += rep.PagesRepaired
		total.BytesPulled += rep.BytesPulled
		total.PagesSkipped += rep.PagesSkipped
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

// emitSweep records the sweep's outcome as events: what was found
// degraded, what reconstruction rebuilt, what stayed broken, and the
// redundancy debt left outstanding (RepairFinish.Val — the monitor's
// debt source).
func (r *Repairer) emitSweep(total Report, err error) {
	if r.Tracer == nil {
		return
	}
	if total.PagesMissing > 0 {
		r.Tracer.Emit(trace.SevWarn, trace.RedundancyDegraded, total.PagesMissing,
			"sweep found %d degraded slots (%d checked)", total.PagesMissing, total.PagesChecked)
	}
	if total.PagesReconstructed > 0 {
		r.Tracer.Emit(trace.SevInfo, trace.PagesReconstructed, total.PagesReconstructed,
			"reconstructed %d pages (%d bytes pushed, %d survivor bytes read)",
			total.PagesReconstructed, total.ReconstructedBytes, total.SurvivorBytes)
	}
	if total.Unrepairable > 0 {
		r.Tracer.Emit(trace.SevError, trace.Unrepairable, total.Unrepairable,
			"%d slots unrepairable (%d provider errors)", total.Unrepairable, total.ProviderErrors)
	}
	outstanding := total.Unrepairable
	sev := trace.SevInfo
	detail := ""
	if err != nil {
		sev = trace.SevError
		detail = "; aborted: " + err.Error()
		// An aborted sweep proves nothing about unexamined slots: keep
		// whatever degradation it saw on the books.
		if m := total.PagesMissing - total.PagesRepaired - total.PagesSkipped - total.PagesReconstructed; m > outstanding {
			outstanding = m
		}
	} else if outstanding > 0 {
		sev = trace.SevWarn
	}
	r.Tracer.Emit(sev, trace.RepairFinish, outstanding,
		"sweep done: %d repaired, %d reconstructed, %d outstanding%s",
		total.PagesRepaired, total.PagesReconstructed, outstanding, detail)
}
