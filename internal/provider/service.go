package provider

import (
	"context"
	"fmt"
	"time"

	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/throttle"
	"blob/internal/wire"
)

// Service hosts one data provider's RPC methods over a PageStore backend
// — the in-RAM Store or the persistent DiskStore. It owns the in-flight
// operation gauge the load balancer reads, so backends stay pure storage.
type Service struct {
	store PageStore

	// ActiveOps counts RPCs in flight, merged into Snapshot for the
	// provider manager's load-based placement.
	ActiveOps stats.Gauge

	// Repair plumbing (EnableRepair): peers dials other providers for
	// MPullPages, pullTB throttles pulled page bytes. Repair counters
	// are owned here, not by the store, so a restarted provider reports
	// only its own repair work (a fresh Service starts from zero).
	peers  Caller
	pullTB *throttle.TokenBucket

	repairedPages stats.Counter
	repairBytes   stats.Counter
	bloomSkips    stats.Counter

	// GetLatency and PutLatency record page-serving handler latency;
	// MLatency exports their snapshots for cluster-wide merging.
	GetLatency stats.Histogram
	PutLatency stats.Histogram

	// chaos holds injected gray-failure state (chaos.go). It applies to
	// page serves only — writes stay healthy, so injected chaos never
	// puts acked data at risk.
	chaos chaos
}

// NewService creates a Service serving ps.
func NewService(ps PageStore) *Service { return &Service{store: ps} }

// Store returns the backend the service serves.
func (sv *Service) Store() PageStore { return sv.store }

// Snapshot returns the backend's statistics with the service's in-flight
// operation count merged in.
func (sv *Service) Snapshot() Stats {
	st := sv.store.Snapshot()
	st.ActiveOps = sv.ActiveOps.Value()
	st.RepairedPages = sv.repairedPages.Value()
	st.RepairBytes = sv.repairBytes.Value()
	st.BloomSkips = sv.bloomSkips.Value()
	return st
}

func init() {
	rpc.RegisterMethodName(MPutPages, "provider.MPutPages")
	rpc.RegisterMethodName(MGetPages, "provider.MGetPages")
	rpc.RegisterMethodName(MDeleteWrite, "provider.MDeleteWrite")
	rpc.RegisterMethodName(MDeletePages, "provider.MDeletePages")
	rpc.RegisterMethodName(MStats, "provider.MStats")
	rpc.RegisterMethodName(MListWrites, "provider.MListWrites")
	rpc.RegisterMethodName(MPullPages, "provider.MPullPages")
	rpc.RegisterMethodName(MLatency, "provider.MLatency")
}

// RegisterHandlers wires the provider's RPC methods onto srv.
func (sv *Service) RegisterHandlers(srv *rpc.Server) {
	srv.Handle(MPutPages, sv.handlePutPages)
	srv.HandleSegs(MGetPages, sv.handleGetPages)
	srv.Handle(MDeleteWrite, sv.handleDeleteWrite)
	srv.Handle(MDeletePages, sv.handleDeletePages)
	srv.Handle(MStats, sv.handleStats)
	srv.Handle(MListWrites, sv.handleListWrites)
	srv.Handle(MPullPages, sv.handlePullPages)
	srv.Handle(MLatency, sv.handleLatency)
	srv.Handle(MChaos, sv.handleChaos)
}

// Wire formats.
//
//	MPutPages request:  u64 blob | u64 write | uvarint n | n × (u32 rel, bytes)
//	MGetPages request:  uvarint n | n × (u64 blob, u64 write, u32 rel)
//	MGetPages response: uvarint n | n × (bool found, bytes if found)

func (sv *Service) handlePutPages(_ context.Context, body []byte) ([]byte, error) {
	sv.ActiveOps.Add(1)
	start := time.Now()
	defer func() {
		sv.PutLatency.Observe(time.Since(start))
		sv.ActiveOps.Add(-1)
	}()
	r := wire.NewReader(body)
	blob := r.Uint64()
	write := r.Uint64()
	n := r.Uvarint()
	// Each page occupies at least 5 request bytes (rel + length varint):
	// reject a count the body cannot hold before sizing the batch.
	if n > uint64(r.Remaining())/5 {
		return nil, fmt.Errorf("provider put: page count %d exceeds body", n)
	}
	pages := make([]Page, 0, n)
	for i := uint64(0); i < n; i++ {
		rel := r.Uint32()
		data := r.BytesField()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("provider put: page %d: %w", i, err)
		}
		pages = append(pages, Page{Blob: blob, Write: write, RelPage: rel, Data: data})
	}
	if err := sv.store.PutPages(pages); err != nil {
		return nil, err
	}
	return nil, nil
}

// handleGetPages answers MGetPages as scatter-gather segments: flag and
// length headers accumulate in a small arena, page payloads alias the
// slices GetPagePooled hands back, so fetched pages travel from store
// memory to the socket without intermediate assembly. Those slices are
// either immutable long-lived RAM store memory (pages are never updated
// in place, and a slice outlives even a concurrent GC delete of its map
// entry) or, from the DiskStore, pooled buffers this handler owns until
// it returns them as held — the rpc server releases them once the
// response is flushed, so a disk-backed provider serves reads without
// allocating page-sized memory.
func (sv *Service) handleGetPages(ctx context.Context, body []byte) (segs [][]byte, held []*rpc.Buf, err error) {
	sv.ActiveOps.Add(1)
	start := time.Now()
	defer func() {
		sv.GetLatency.Observe(time.Since(start))
		sv.ActiveOps.Add(-1)
	}()
	if err := sv.chaosEnter(ctx); err != nil {
		return nil, nil, err
	}
	r := wire.NewReader(body)
	n := int(r.Uvarint())
	// Each ref occupies exactly 20 request bytes, so any claimed count
	// beyond len(body)/20 is garbage — reject it before sizing the
	// response arena, or a small hostile body could demand gigabytes.
	if n < 0 || n > len(body)/20 {
		return nil, nil, fmt.Errorf("provider get: request count %d exceeds body", n)
	}
	vw := wire.NewVec(10+11*n, 1+2*n) // count varint + per page flag + length varint
	vw.Uvarint(uint64(n))
	for i := 0; i < n; i++ {
		blob := r.Uint64()
		write := r.Uint64()
		rel := r.Uint32()
		if err := r.Err(); err != nil {
			// held goes back with the error: the server releases it.
			return nil, held, fmt.Errorf("provider get: request %d: %w", i, err)
		}
		data, buf, ok := sv.store.GetPagePooled(blob, write, rel)
		if buf != nil {
			// Sized on the first pooled page, so a RAM serve, which
			// never holds one, allocates no list.
			if held == nil {
				held = make([]*rpc.Buf, 0, n)
			}
			held = append(held, buf)
		}
		if !ok {
			vw.Uint8(0)
			continue
		}
		vw.Uint8(1)
		vw.Uvarint(uint64(len(data)))
		vw.Alias(data)
	}
	return vw.Segs(), held, nil
}

func (sv *Service) handleDeleteWrite(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	blob := r.Uint64()
	write := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("provider delete: %w", err)
	}
	n := sv.store.DeleteWrite(blob, write)
	w := wire.NewWriter(8)
	w.Uvarint(uint64(n))
	return w.Bytes(), nil
}

func (sv *Service) handleDeletePages(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	blob := r.Uint64()
	write := r.Uint64()
	rels := r.Uint32Slice()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("provider delete pages: %w", err)
	}
	n := sv.store.DeletePages(blob, write, rels)
	w := wire.NewWriter(8)
	w.Uvarint(uint64(n))
	return w.Bytes(), nil
}
