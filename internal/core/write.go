package core

import (
	"context"
	"fmt"
	"time"

	"blob/internal/meta"
	"blob/internal/pmanager"
	"blob/internal/provider"
	"blob/internal/rpc"
	"blob/internal/trace"
	"blob/internal/vmanager"
	"blob/internal/wire"
)

// WriteResult reports a completed write and its phase timings, which the
// benchmark's layer table uses to separate metadata overhead from data
// transfer.
type WriteResult struct {
	// Version is the write's assigned (and published) version number.
	Version meta.Version
	// Offset is the final byte offset (== the requested offset, except
	// for appends where the version manager resolves it).
	Offset uint64
	// DataTime covers provider allocation and page upload.
	DataTime time.Duration
	// AssignTime covers the version manager round trip.
	AssignTime time.Duration
	// MetaTime covers building and storing the metadata tree.
	MetaTime time.Duration
	// CommitTime covers the blocking publication wait.
	CommitTime time.Duration
}

// Write implements the paper's WRITE primitive: patch the blob with buf
// at offset, producing and publishing a new version. buf must be
// page-aligned in offset and length. When Write returns, the version is
// published and immediately readable.
func (b *Blob) Write(ctx context.Context, buf []byte, offset uint64) (meta.Version, error) {
	res, err := b.WriteDetailed(ctx, buf, offset)
	return res.Version, err
}

// Append writes buf at the current end of the blob, returning the new
// version and the offset the data landed at. Concurrent appends are
// serialized by the version manager and never overlap.
func (b *Blob) Append(ctx context.Context, buf []byte) (meta.Version, uint64, error) {
	res, err := b.writeInternal(ctx, buf, 0, true)
	return res.Version, res.Offset, err
}

// WriteDetailed is Write with phase timings.
func (b *Blob) WriteDetailed(ctx context.Context, buf []byte, offset uint64) (WriteResult, error) {
	return b.writeInternal(ctx, buf, offset, false)
}

func (b *Blob) writeInternal(ctx context.Context, buf []byte, offset uint64, isAppend bool) (res WriteResult, err error) {
	start := time.Now()
	ctx, root := b.c.opts.Tracer.Root(ctx, "core.WriteBlob")
	if root != nil {
		root.AddBytes(int64(len(buf)))
		defer func() { b.c.endRoot(root, time.Since(start), err) }()
	}
	if len(buf) == 0 || uint64(len(buf))%b.pageSize != 0 {
		return res, fmt.Errorf("core: write length %d not a positive multiple of page size %d", len(buf), b.pageSize)
	}
	if !isAppend && offset%b.pageSize != 0 {
		return res, fmt.Errorf("core: write offset %d not page aligned", offset)
	}
	npages := uint64(len(buf)) / b.pageSize
	writeID, err := newWriteID()
	if err != nil {
		return res, err
	}

	// Phases 1 and 2 are independent — the page push is keyed by the
	// client-generated write identity, not the version number — so the
	// version-manager round trip (Phase 2) runs concurrently with the
	// page/parity fan-out (Phase 1) and the write pays max(push, assign)
	// instead of their sum.
	type assignResult struct {
		asg vmanager.Assignment
		err error
		dur time.Duration
	}
	assignCh := make(chan assignResult, 1)
	go func() {
		t := time.Now()
		actx, aop := trace.Start(ctx, "write.assign")
		asg, err := b.c.vm.AssignVersion(actx, b.id, writeID, offset, uint64(len(buf)), isAppend)
		aop.EndErr(err)
		assignCh <- assignResult{asg, err, time.Since(t)}
	}()

	// Phase 1 (paper §III.B): get providers from the provider manager,
	// then push all pages in parallel, batched per provider. The two
	// redundancy modes differ only in what lands where: replication
	// pushes r copies of each page, rs(k,m) pushes each page once plus
	// m parity pages per stripe (docs/erasure.md). Both produce a
	// leafAt function the metadata build below consumes.
	t0 := time.Now()
	pctx, pushOp := trace.Start(ctx, "write.push")
	pushOp.AddBytes(int64(len(buf)))
	var leafAt func(rel uint64) meta.LeafData
	var pushErr error
	if b.red.IsRS() {
		refs, err := b.putStriped(pctx, writeID, buf)
		if err != nil {
			pushErr = err
		} else {
			k := uint64(b.red.K)
			leafAt = func(rel uint64) meta.LeafData {
				ref := refs[rel/k]
				slot := int(uint32(rel) - ref.FirstRel)
				return meta.LeafData{
					Write:     writeID,
					RelPage:   uint32(rel),
					Providers: []uint32{ref.Provs[slot]},
					Checksum:  ref.Sums[slot],
					Stripe:    ref,
				}
			}
		}
	} else {
		alloc, err := b.allocateProviders(pctx, int(npages), b.c.opts.DataReplicas)
		if err != nil {
			pushErr = err
		} else if checksums, err := b.putPages(pctx, writeID, buf, alloc); err != nil {
			pushErr = err
		} else {
			r := b.c.opts.DataReplicas
			if r > len(alloc.IDs)/int(npages) {
				r = len(alloc.IDs) / int(npages)
			}
			leafAt = func(rel uint64) meta.LeafData {
				return meta.LeafData{
					Write:     writeID,
					RelPage:   uint32(rel),
					Providers: alloc.IDs[int(rel)*r : (int(rel)+1)*r],
					Checksum:  checksums[rel],
				}
			}
		}
	}
	pushOp.EndErr(pushErr)
	if pushErr != nil {
		// The concurrently assigned version will never commit; abort it
		// so the version manager need not wait out the dead-writer
		// deadline before publishing later writes.
		if ar := <-assignCh; ar.err == nil {
			abortCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = b.c.vm.Abort(abortCtx, b.id, ar.asg.Version)
			cancel()
		}
		return res, pushErr
	}
	res.DataTime = time.Since(t0)

	// Phase 2: the version number and precomputed border versions,
	// already in flight.
	ar := <-assignCh
	if ar.err != nil {
		return res, ar.err
	}
	asg := ar.asg
	res.AssignTime = ar.dur
	res.Version = asg.Version
	res.Offset = asg.Offset
	firstPage := asg.Offset / b.pageSize
	wr := meta.PageRange{First: firstPage, Count: npages}

	// Phase 3: build the partial tree in complete isolation and store it.
	t0 = time.Now()
	mctx, metaOp := trace.Start(ctx, "write.meta")
	nodes, err := meta.Build(b.id, asg.Version, b.totalPages, wr,
		meta.BorderResolver(asg.Borders),
		func(page uint64) (meta.LeafData, error) {
			return leafAt(page - firstPage), nil
		})
	if err != nil {
		metaOp.EndErr(err)
		return res, err
	}
	metaOp.Notef("%d nodes", len(nodes))
	if err := b.c.ms.StoreNodes(mctx, nodes); err != nil {
		metaOp.EndErr(err)
		return res, err
	}
	metaOp.End()
	res.MetaTime = time.Since(t0)

	// Phase 4: report success; block until published so the returned
	// version is immediately readable (the paper's liveness guarantee
	// makes this wait finite).
	t0 = time.Now()
	cctx, commitOp := trace.Start(ctx, "write.commit")
	published, err := b.c.vm.Commit(cctx, b.id, asg.Version, true)
	if err != nil {
		commitOp.EndErr(err)
		return res, err
	}
	commitOp.End()
	b.notePublished(published) // >= asg.Version: the reply is sent once it is published
	res.CommitTime = time.Since(t0)

	b.c.Writes.Inc()
	b.c.BytesWritten.Add(int64(len(buf)))
	return res, nil
}

// allocateProviders asks the provider manager for placement: r distinct
// providers for each of npages groups (pages under replication, whole
// stripes under rs).
func (b *Blob) allocateProviders(ctx context.Context, npages, r int) (pmanager.Allocation, error) {
	body := pmanager.EncodeAllocate(npages, r)
	resp, err := b.c.pool.Call(ctx, b.c.opts.PManagerAddr, pmanager.MAllocate, body)
	if err != nil {
		return pmanager.Allocation{}, fmt.Errorf("core: allocate providers: %w", err)
	}
	alloc, err := pmanager.DecodeAllocation(resp)
	if err != nil {
		return pmanager.Allocation{}, err
	}
	// Cache any addresses the manager told us about.
	b.c.provMu.Lock()
	for id, addr := range alloc.Addrs {
		b.c.providers[id] = addr
	}
	b.c.provMu.Unlock()
	return alloc, nil
}

// putPages uploads all pages in parallel, one batched request per
// provider, and returns the per-page checksums. The request bodies are
// scatter-gather segments aliasing buf (zero copies on the client; buf
// stays immutable until the Waits below return).
func (b *Blob) putPages(ctx context.Context, writeID uint64, buf []byte, alloc pmanager.Allocation) ([]uint64, error) {
	npages := uint64(len(buf)) / b.pageSize
	r := len(alloc.IDs) / int(npages)
	checksums := make([]uint64, npages)
	for p := range checksums {
		checksums[p] = wire.Checksum64(buf[uint64(p)*b.pageSize : uint64(p+1)*b.pageSize])
	}

	type batch struct {
		rels  []uint32
		datas [][]byte
	}
	// Pre-count each provider's share so the batch slices allocate
	// exactly once instead of growing append by append.
	counts := make(map[uint32]int, 8)
	for _, id := range alloc.IDs[:int(npages)*r] {
		counts[id]++
	}
	batches := make(map[uint32]*batch, len(counts))
	for p := uint64(0); p < npages; p++ {
		data := buf[p*b.pageSize : (p+1)*b.pageSize]
		for j := 0; j < r; j++ {
			id := alloc.IDs[int(p)*r+j]
			bt := batches[id]
			if bt == nil {
				n := counts[id]
				bt = &batch{rels: make([]uint32, 0, n), datas: make([][]byte, 0, n)}
				batches[id] = bt
			}
			bt.rels = append(bt.rels, uint32(p))
			bt.datas = append(bt.datas, data)
		}
	}

	pend := make([]*rpc.Pending, 0, len(batches))
	for id, bt := range batches {
		addr, err := b.c.providerAddr(ctx, id)
		if err != nil {
			return nil, err
		}
		segs := provider.EncodePutPagesVec(b.id, writeID, bt.rels, bt.datas)
		pend = append(pend, b.c.pool.Go(ctx, addr, provider.MPutPages, segs))
	}
	for i, p := range pend {
		if _, err := p.Wait(ctx); err != nil {
			// Drain from i, not i+1: a ctx-derived error means this very
			// call may still be queued with segments aliasing buf.
			drainPending(pend[i:])
			return nil, fmt.Errorf("core: store pages: %w", err)
		}
		p.Release()
	}
	return checksums, nil
}

// drainPending waits out vectored calls whose body segments alias the
// caller's buffer before an error return hands that buffer back to the
// caller. Waiting detached from the request context is deliberate: a
// frame sitting in a connection's send queue is flushed (or failed)
// regardless of the caller's deadline, and returning earlier would let
// the caller mutate memory the writer goroutine is still reading.
func drainPending(pend []*rpc.Pending) {
	for _, p := range pend {
		_, _ = p.Wait(context.Background())
	}
}
