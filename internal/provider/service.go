package provider

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"blob/internal/diskstore"
	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/wire"
)

// Service hosts one data provider's RPC methods over a PageStore backend
// — the in-RAM Store or the persistent DiskStore. It owns the in-flight
// operation gauge, so backends stay pure storage.
type Service struct {
	store PageStore

	// ActiveOps counts RPCs in flight, merged into Snapshot and reported
	// in heartbeats.
	ActiveOps stats.Gauge

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

// Open assembles one data provider: a Service over a fresh page store
// bounded by capacity live bytes (0 = unlimited) — a diskstore segment
// log in opts.Dir, recovering whatever the directory holds, or the
// RAM-only Store, the paper's mode, when opts.Dir is empty.
func Open(opts diskstore.Options, capacity int64) (*Service, error) {
	var ps PageStore
	if opts.Dir == "" {
		ps = NewStore(capacity)
	} else {
		ds, err := NewDiskStore(opts, capacity)
		if err != nil {
			return nil, err
		}
		ps = ds
	}
	return &Service{store: ps}, nil
}

// Close closes the backend when it holds files (a DiskStore). Stop
// serving first: a closed store reports pages absent, and a reader
// cannot tell that apart from data loss.
func (sv *Service) Close() error {
	if c, ok := sv.store.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Store returns the backend the service serves.
func (sv *Service) Store() PageStore { return sv.store }

// Snapshot returns the backend's statistics with the service's in-flight
// operation count merged in.
func (sv *Service) Snapshot() Stats {
	st := sv.store.Snapshot()
	st.ActiveOps = sv.ActiveOps.Value()
	return st
}

func init() {
	rpc.RegisterMethodName(MPutPages, "provider.MPutPages")
	rpc.RegisterMethodName(MGetPages, "provider.MGetPages")
	rpc.RegisterMethodName(MDeleteWrite, "provider.MDeleteWrite")
	rpc.RegisterMethodName(MDeletePages, "provider.MDeletePages")
	rpc.RegisterMethodName(MStats, "provider.MStats")
	rpc.RegisterMethodName(MListWrites, "provider.MListWrites")
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
	srv.Handle(MLatency, sv.handleLatency)
	srv.Handle(MChaos, sv.handleChaos)
}

// Wire formats.
//
//	MPutPages request:  u64 blob | u64 write | uvarint n | n × (u32 rel, bytes)
//	MGetPages request:  uvarint n | n × (u64 blob, u64 write, u32 rel)
//	MGetPages response: uvarint n | n × (u8 found | uvarint len if found) | the found payloads, in order
//
// The MGetPages response carries every header ahead of the payloads, so
// a client reads each payload straight into its destination
// (PagesInto).

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
	n := r.Count(5) // rel + length varint
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("provider put: %w", err)
	}
	pages := make([]Page, 0, n)
	for i := 0; i < n; i++ {
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
// slices GetPagePinned hands back, so fetched pages travel from store
// memory to the socket without intermediate assembly. Those slices are
// either immutable long-lived RAM store memory (pages are never updated
// in place, and a slice outlives even a concurrent GC delete of its map
// entry) or, from the DiskStore, records in a segment's read-only
// mapping, pinned until the handler returns the pins as held — the rpc
// server releases them once the response is flushed, so a disk-backed
// provider serves reads without a page-sized buffer or a copy.
func (sv *Service) handleGetPages(ctx context.Context, body []byte) (segs [][]byte, held []rpc.Releaser, err error) {
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
	// Each ref occupies exactly 20 request bytes: a count the body cannot
	// hold is rejected before it sizes the response arena, or a small
	// hostile body could demand gigabytes.
	n := r.Count(20)
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("provider get: %w", err)
	}
	hdr := make([]byte, 0, 10+11*n) // count varint + per page flag + length varint
	segs = make([][]byte, 1, 1+n)   // the headers, then one payload per page found
	hdr = binary.AppendUvarint(hdr, uint64(n))
	for i := 0; i < n; i++ {
		blob := r.Uint64()
		write := r.Uint64()
		rel := r.Uint32()
		if err := r.Err(); err != nil {
			// held goes back with the error: the server releases it.
			return nil, held, fmt.Errorf("provider get: request %d: %w", i, err)
		}
		data, pin, ok := sv.store.GetPagePinned(blob, write, rel)
		if pin != nil {
			// Sized on the first pinned page, so a RAM serve, which
			// never holds one, allocates no list.
			if held == nil {
				held = make([]rpc.Releaser, 0, n)
			}
			held = append(held, pin)
		}
		if !ok {
			hdr = append(hdr, 0)
			continue
		}
		hdr = append(hdr, 1)
		hdr = binary.AppendUvarint(hdr, uint64(len(data)))
		segs = append(segs, data)
	}
	segs[0] = hdr
	return segs, held, nil
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
