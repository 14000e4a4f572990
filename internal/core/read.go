package core

import (
	"context"
	"fmt"
	"time"

	"blob/internal/meta"
	"blob/internal/mstore"
	"blob/internal/provider"
	"blob/internal/rpc"
	"blob/internal/trace"
	"blob/internal/wire"
)

// ReadResult reports a completed read and its phase timings.
type ReadResult struct {
	// Latest is the newest version the handle knows published, at least
	// the version read: fresh from the version manager when the read had
	// to ask it, the handle's published watermark otherwise. It is
	// informational — a newer version may exist; Blob.Latest always asks.
	Latest meta.Version
	// MetaTime covers the segment tree traversal.
	MetaTime time.Duration
	// DataTime covers page fetches.
	DataTime time.Duration
}

// Read implements the paper's READ primitive: fill buf with the segment
// at offset of version v. Version 0 reads the initial all-zero string.
// It fails with ErrNotPublished if v has not been published — asking the
// version manager only when v is above the handle's published watermark
// (Blob): publication is forever, so a read of a version the handle has
// been told is published is served by the metadata and data providers
// alone. It returns ReadResult.Latest.
func (b *Blob) Read(ctx context.Context, buf []byte, offset uint64, v meta.Version) (meta.Version, error) {
	res, err := b.ReadDetailed(ctx, buf, offset, v)
	return res.Latest, err
}

// ReadLatest reads the newest published snapshot and returns its
// version. It always asks the version manager — a write another client
// was just acknowledged is visible to the very next ReadLatest — and the
// answer is passed down as already validated, so the whole read costs a
// single centralized interaction.
func (b *Blob) ReadLatest(ctx context.Context, buf []byte, offset uint64) (meta.Version, error) {
	res, err := b.readDetailed(ctx, buf, offset, 0, versionLatest)
	return res.Latest, err
}

// ReadDetailed is Read with phase timings.
func (b *Blob) ReadDetailed(ctx context.Context, buf []byte, offset uint64, v meta.Version) (ReadResult, error) {
	return b.readDetailed(ctx, buf, offset, v, versionKnownOrAsk)
}

// ReadPinned reads version v with no version-manager interaction at
// all. The caller asserts v is published — it pinned v earlier, from
// Latest, WaitVersion, a Write it performed, or another read's Latest
// return, possibly through another handle or process (a Read on the
// handle that learned v skips the interaction by itself). This is the
// snapshot read of a pinned version in its purest form: a published
// version's metadata sub-forest and pages are immutable, so the read
// touches only the (decentralized) metadata ring and the data providers.
// A reader holding a pinned version can loop on ReadPinned forever
// without ever contacting the centralized version manager — concurrent
// writers publishing v+1, v+2, ... cannot slow it down there, which is
// the paper's lock-free claim and what the benchmark's survey-mixed
// workload measures.
//
// Reading a never-published v through ReadPinned is a caller bug: the
// metadata traversal will fail (or, for an assigned-but-unpublished v,
// observe a tree still under construction). The assertion is not
// remembered: it does not raise the handle's watermark.
func (b *Blob) ReadPinned(ctx context.Context, buf []byte, offset uint64, v meta.Version) error {
	_, err := b.readDetailed(ctx, buf, offset, v, versionPinned)
	return err
}

// versionStep is how a read establishes that its version is published.
type versionStep int

const (
	versionKnownOrAsk versionStep = iota // Read: the handle's watermark, else the version manager
	versionPinned                        // ReadPinned: the caller's word
	versionLatest                        // ReadLatest: whichever version the version manager says is newest
)

// askLatest is the version step of a read that has to take it: one round
// trip to the version manager under a read.version span, counted in
// VersionTrips, its answer raising the watermark.
func (b *Blob) askLatest(ctx context.Context) (meta.Version, error) {
	ctx, op := trace.Start(ctx, "read.version")
	b.c.VersionTrips.Inc()
	latest, _, err := b.Latest(ctx)
	op.EndErr(err)
	return latest, err
}

// readDetailed implements READ of version v, or with versionLatest of
// the version its version step learns.
func (b *Blob) readDetailed(ctx context.Context, buf []byte, offset uint64, v meta.Version, step versionStep) (res ReadResult, err error) {
	start := time.Now()
	ctx, root := b.c.opts.Tracer.Root(ctx, "core.ReadBlob")
	if root != nil {
		root.AddBytes(int64(len(buf)))
		defer func() { b.c.endRoot(root, time.Since(start), err) }()
	}
	if len(buf) == 0 || uint64(len(buf))%b.pageSize != 0 {
		return res, fmt.Errorf("core: read length %d not a positive multiple of page size %d", len(buf), b.pageSize)
	}
	if offset%b.pageSize != 0 {
		return res, fmt.Errorf("core: read offset %d not page aligned", offset)
	}

	// Step 1 (paper §III.B): establish that v is published — the only
	// centralized interaction of the whole read, and skipped when a
	// version-manager reply has already told this handle so.
	known := b.published.Load()
	switch {
	case step == versionPinned:
		res.Latest = v
	case step == versionKnownOrAsk && v <= known:
		res.Latest = known
	default:
		latest, err := b.askLatest(ctx)
		if err != nil {
			return res, err
		}
		if step == versionLatest {
			v = latest
		} else if v > latest {
			return res, fmt.Errorf("%w: requested v%d, latest published v%d", ErrNotPublished, v, latest)
		}
		res.Latest = latest
	}

	// Step 2: resolve the segment through the metadata tree.
	t0 := time.Now()
	mctx, mop := trace.Start(ctx, "read.meta")
	pr := meta.PageRange{First: offset / b.pageSize, Count: uint64(len(buf)) / b.pageSize}
	leaves, err := b.c.ms.ReadPlan(mctx, b.id, v, b.totalPages, pr)
	mop.EndErr(err)
	if err != nil {
		return res, err
	}
	res.MetaTime = time.Since(t0)

	// Step 3: fetch all pages in parallel, batched per provider.
	t0 = time.Now()
	if err := b.fetchPages(ctx, buf, pr, leaves); err != nil {
		return res, err
	}
	res.DataTime = time.Since(t0)

	b.c.Reads.Inc()
	b.c.BytesRead.Add(int64(len(buf)))
	return res, nil
}

// ReadMeta performs only the metadata traversal for a segment — the
// operation Figure 3(a) measures.
func (b *Blob) ReadMeta(ctx context.Context, offset, length uint64, v meta.Version) ([]mstore.PageLeaf, error) {
	pr, err := meta.BytesToPages(offset, length, b.pageSize)
	if err != nil {
		return nil, err
	}
	return b.c.ms.ReadPlan(ctx, b.id, v, b.totalPages, pr)
}

// fetchPages downloads every non-zero leaf's page into buf, zero-filling
// zero pages, with failover, checksum verification, hedged fetches and
// read-repair (docs/erasure.md §4, docs/robustness.md). Each page walks
// its leaf's Providers in order, one wave at a time, until one serves
// it: every copy of a k=1 page, the own slot of a k>=2 page, which then
// falls back to its stripe's reconstruction. A provider whose circuit
// breaker is open is deferred to the end of the walk, never left out
// of it — a k>=2 page's slot behind an open breaker goes straight to
// reconstruction, which asks it only for a stripe it cannot decode
// without it. A group that outlives its provider's adaptive hedge delay
// is raced against its pages' next sources (hedge.go), and a page
// served after a definite miss is re-pushed in the background to every
// provider that missed it, restoring redundancy as a side effect of
// reading.
func (b *Blob) fetchPages(ctx context.Context, buf []byte, pr meta.PageRange, leaves []mstore.PageLeaf) (err error) {
	ctx, fop := trace.Start(ctx, "read.fetch")
	if fop != nil {
		fop.AddBytes(int64(len(buf)))
		defer func() { fop.EndErr(err) }()
	}
	remaining := make([]fetchItem, 0, len(leaves))
	for _, l := range leaves {
		dst := buf[(l.Page-pr.First)*b.pageSize : (l.Page-pr.First+1)*b.pageSize]
		if l.Leaf.Write == 0 {
			clear(dst)
			continue
		}
		remaining = append(remaining, fetchItem{leaf: l, dst: dst, walk: l.Leaf.Providers})
	}

	var repairs []readRepair
	// degraded collects the k>=2 pages left to their stripes.
	var degraded []fetchItem
	// pend holds the current wave's fetches, whose sinks read their
	// answers straight into buf until they complete. A failing read —
	// a cancelled ctx, any error return — detaches them before it
	// returns, so nothing lands in buf once the read has returned (a
	// hedge win detaches its straggler itself, in waitFetchHedged).
	var pend []*rpc.Pending
	defer func() {
		if err != nil {
			for _, p := range pend {
				p.Detach()
			}
		}
	}()

	// Waves: ask every page's first provider in one parallel wave, then
	// the next provider of whatever failed, and so on. A k=1 page whose
	// walk is exhausted is unrecoverable.
	for wave := 0; len(remaining) > 0; wave++ {
		if wave > 0 {
			fop.Notef("retry: wave %d, %d pages", wave, len(remaining))
		}
		// Pre-count the fan-out so each group's slices allocate exactly
		// once (incremental append growth was a measurable slice of the
		// read path, docs/perf.md).
		counts := make(map[uint32]int, 8)
		asked := remaining[:0]
		for _, it := range remaining {
			switch {
			case len(it.walk) == 0 && it.leaf.Leaf.Stripe == nil:
				return fmt.Errorf("%w: page %d (write %d) failed on all %d copies",
					ErrPageUnavailable, it.leaf.Page, it.leaf.Leaf.Write, len(it.leaf.Leaf.Providers))
			case len(it.walk) == 0:
				degraded = append(degraded, it)
				continue
			case it.leaf.Leaf.Stripe != nil && b.c.breakerOpen(it.walk[0]):
				fop.Notef("breaker-defer: page %d to its stripe", it.leaf.Page)
				it.unasked = true
				degraded = append(degraded, it)
				continue
			}
			if n := it.deferOpen(b.c); n > 0 {
				fop.Notef("breaker-defer: page %d, %d copies", it.leaf.Page, n)
			}
			counts[it.walk[0]]++
			asked = append(asked, it)
		}
		remaining = asked
		groups := make(map[uint32]*fetchGroup, len(counts))
		for _, it := range remaining {
			id := it.walk[0]
			g := groups[id]
			if g == nil {
				n := counts[id]
				g = &fetchGroup{
					refs:  make([]provider.PageRef, 0, n),
					items: make([]fetchItem, 0, n),
					pages: provider.PagesInto{Dsts: make([][]byte, 0, n)},
				}
				groups[id] = g
			}
			g.refs = append(g.refs, provider.PageRef{
				Blob: b.id, Write: it.leaf.Leaf.Write, RelPage: it.relOn(id),
			})
			g.items = append(g.items, it)
			g.pages.Dsts = append(g.pages.Dsts, it.dst)
		}

		// Each group's sink records its pages' outcomes in its share of
		// one status slab; the sinks run concurrently, on the groups'
		// connections.
		status := make([]provider.PageStatus, len(remaining))
		var next []fetchItem
		pend = make([]*rpc.Pending, 0, len(groups))
		gs := make([]*fetchGroup, 0, len(groups))
		ids := make([]uint32, 0, len(groups))
		addrs := make([]string, 0, len(groups))
		for id, g := range groups {
			addr, err := b.c.providerAddr(ctx, id)
			if err != nil {
				// Unknown provider: try these pages on their next source.
				next = append(next, g.items...)
				continue
			}
			g.pages.Status, status = status[:len(g.refs)], status[len(g.refs):]
			pend = append(pend, b.c.pool.Go(ctx, addr, provider.MGetPages,
				[][]byte{provider.EncodeGetPages(g.refs)}, &g.pages))
			gs = append(gs, g)
			ids = append(ids, id)
			addrs = append(addrs, addr)
		}
		dispatched := time.Now()
		// served records a verified page, queueing a read-repair when
		// earlier providers definitively missed it. The repair
		// references the page bytes in place (it.dst);
		// scheduleReadRepair materializes its own copy only for repairs
		// it actually schedules.
		served := func(it fetchItem) {
			for _, id := range it.missed {
				repairs = append(repairs, readRepair{
					write: it.leaf.Leaf.Write, rel: it.relOn(id), data: it.dst, provider: id,
				})
			}
		}
		for i, p := range pend {
			hedged, abandoned, err := b.waitFetchHedged(ctx, p, gs[i], addrs[i], dispatched, fop)
			// serveHedged serves item j from verified hedge bytes when
			// the hedge produced them — the first-usable-response-wins
			// half of the race the primary lost (or failed).
			serveHedged := func(j int, it fetchItem) bool {
				if hedged == nil || hedged[j] == nil {
					return false
				}
				copy(it.dst, hedged[j])
				b.c.HedgeWins.Inc()
				served(it)
				return true
			}
			if abandoned {
				// Every page of the group was hedge-served; the
				// straggling primary was detached unread.
				for j, it := range gs[i].items {
					serveHedged(j, it)
				}
				continue
			}
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// A transport failure, an error answer or an answer that
				// does not parse: the group failed on this provider.
				for j, it := range gs[i].items {
					if !serveHedged(j, it) {
						next = append(next, it)
					}
				}
				continue
			}
			// The sink read each page straight into its destination.
			for j, st := range gs[i].pages.Status {
				it := gs[i].items[j]
				switch {
				case st == provider.PageMissing:
					it.missed = append(it.missed, ids[i])
					if !serveHedged(j, it) {
						next = append(next, it)
					}
				case st == provider.PageBad ||
					wire.Checksum64(it.dst) != it.leaf.Leaf.Checksum:
					// Wrong size or corrupt: fail over; the next source
					// overwrites whatever landed in dst.
					if !serveHedged(j, it) {
						next = append(next, it)
					}
				default:
					served(it)
				}
			}
		}
		// Every page left failed on its walk's head: the next wave asks
		// the provider behind it.
		for i := range next {
			next[i].pop()
		}
		remaining = next
	}

	if len(degraded) > 0 {
		if err := b.serveDegraded(ctx, degraded, &repairs); err != nil {
			return err
		}
	}
	if len(repairs) > 0 {
		b.c.scheduleReadRepair(b.id, repairs)
	}
	return nil
}
