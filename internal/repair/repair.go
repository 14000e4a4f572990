// Package repair implements the repair agent (docs/erasure.md §5). The
// agent walks a blob's metadata to learn every stripe's slots — under
// rs(1,m) a page and its copies — asks each involved provider which
// pages of those writes it holds (MListWrites, answered from the
// provider's index), and rebuilds each missing slot from its stripe's
// verified survivors: any k of them decode the stripe, and under k = 1
// any one copy is the page. It pushes exactly the missing slots back to
// their providers with ordinary MPutPages.
//
// Repair is safe to over-approximate and to re-run: providers store
// pushed pages with the same first-wins idempotent puts the write path
// uses. A second pass reporting zero missing pages is therefore the
// agent's convergence proof, and what the tests assert.
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
	// PagesChecked counts the stripe slots examined; PagesMissing how
	// many were found degraded.
	PagesChecked int64
	PagesMissing int64
	// PagesReconstructed counts slots the agent rebuilt from their
	// stripe's survivors and pushed back to their providers;
	// ReconstructedBytes is the payload pushed for them (the bytes the
	// degraded providers had to ingest); SurvivorBytes the shard bytes
	// the agent read to feed the rebuilds.
	PagesReconstructed int64
	ReconstructedBytes int64
	SurvivorBytes      int64
	// Unrepairable counts slots that stayed degraded: too few verified
	// survivors, or the degraded provider is unreachable.
	Unrepairable int64
	// ProviderErrors counts providers that could not be queried (down or
	// erroring); their slots count as Unrepairable.
	ProviderErrors int
}

// FullyRedundant reports whether the pass left every slot restored:
// nothing unrepairable and every provider answerable.
func (rep Report) FullyRedundant() bool {
	return rep.Unrepairable == 0 && rep.ProviderErrors == 0
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

	// Collect every stripe across all published versions. (write,
	// first rel) identifies a stripe, whose layout every one of its
	// leaves carries, so later versions just dedupe.
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
				if l.Leaf.Write == 0 || len(l.Leaf.Providers) == 0 {
					continue // never-written page, or one placed nowhere: nothing stored anywhere
				}
				ref := l.Leaf.Layout()
				sk := stripeKey{l.Leaf.Write, ref.FirstRel}
				st := stripes[sk]
				if st == nil {
					st = &stripeState{write: l.Leaf.Write, ref: ref, refd: make(map[int]bool)}
					stripes[sk] = st
				}
				st.refd[ref.SlotOf(l.Leaf.RelPage)] = true
			}
		}
	}
	if len(stripes) == 0 {
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

	// The MListWrites scope: every (provider, write) a stripe's checked
	// slots touch.
	wantWrites := make(map[uint32]map[uint64]bool)
	for _, st := range stripes {
		for _, slot := range st.checkedSlots() {
			id := st.ref.Provs[slot]
			wm := wantWrites[id]
			if wm == nil {
				wm = make(map[uint64]bool)
				wantWrites[id] = wm
			}
			wm[st.write] = true
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

	for _, st := range stripes {
		r.repairStripe(ctx, &rep, blobID, st, addrs, held)
	}

	if rep.PagesMissing > 0 {
		r.logf("repair: blob %d: %d/%d slots degraded, %d reconstructed (%d bytes pushed), %d unrepairable",
			blobID, rep.PagesMissing, rep.PagesChecked,
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
			r.logf("repair: %d slots degraded, %d reconstructed (%d bytes), %d unrepairable",
				rep.PagesMissing, rep.PagesReconstructed, rep.ReconstructedBytes, rep.Unrepairable)
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
		if m := total.PagesMissing - total.PagesReconstructed; m > outstanding {
			outstanding = m
		}
	} else if outstanding > 0 {
		sev = trace.SevWarn
	}
	r.Tracer.Emit(sev, trace.RepairFinish, outstanding,
		"sweep done: %d reconstructed, %d outstanding%s",
		total.PagesReconstructed, outstanding, detail)
}
