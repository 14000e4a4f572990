// Package core implements the blob client: the paper's ALLOC, READ and
// WRITE primitives (plus APPEND) orchestrated over the distributed
// services — version manager, provider manager, data providers and
// DHT-based metadata providers.
//
// The client is the locus of the paper's parallelism claims: page
// transfers fan out to all involved data providers concurrently, metadata
// fetches proceed level-by-level in per-provider batches, and the only
// serialized step of any operation is the version manager interaction,
// which is a single small RPC.
package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"blob/internal/dht"
	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/mstore"
	"blob/internal/pmanager"
	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/trace"
	"blob/internal/vmanager"
)

// Errors surfaced by client operations.
var (
	// ErrNotPublished is returned by Read when the requested version is
	// newer than the latest published version (the paper's failing READ).
	ErrNotPublished = errors.New("core: version not yet published")
	// ErrChecksum is returned when a page its stripe reconstructed fails
	// integrity verification.
	ErrChecksum = errors.New("core: page checksum mismatch")
	// ErrPageUnavailable is returned when a page cannot be fetched from
	// any copy, nor reconstructed from its stripe.
	ErrPageUnavailable = errors.New("core: page unavailable on all copies")
)

// Options configures a Client.
type Options struct {
	// Network provides connectivity (rpc.TCP{} or a netsim host).
	Network rpc.Network
	// VManagerShards addresses the version plane, one vmanager replica
	// group (docs/vmanager-group.md): exactly one entry, the group's
	// replica addresses — [][]string{{addr}} for a lone version manager.
	// The outer slice is kept for callers that still pass the older
	// sharded shape; NewClient rejects any other count.
	VManagerShards [][]string
	// PManagerAddr is the provider manager's RPC address.
	PManagerAddr string
	// MetaDirAddr is the metadata directory's RPC address (DHT membership).
	MetaDirAddr string
	// Redundancy selects the rs(k,m) mode of blobs this client creates
	// (docs/erasure.md): rs(1, r-1) stores r copies of each page, rs(k,m)
	// with k >= 2 erasure-coded stripes. The zero value defers to the
	// mode the provider manager advertises for the deployment. Blobs
	// opened with OpenBlob always use the mode recorded at their
	// creation.
	Redundancy erasure.Redundancy
	// DataReplicas, when above 1 and Redundancy is unset, creates
	// rs(1, DataReplicas-1) blobs. It stays only for the benchmark's
	// survey-mixed workload (benchmark/workload.go), which still sets
	// it; the next benchmark change moves that to Redundancy and drops
	// this field.
	DataReplicas int
	// MetaReplicas is the DHT replication factor for tree nodes (default 1).
	MetaReplicas int
	// CacheNodes bounds the client metadata cache; 0 disables it,
	// negative selects the paper's 2^20.
	CacheNodes int
	// DisableHedging turns off hedged reads (docs/robustness.md):
	// without it, a page fetch that outlives its provider's adaptive
	// hedge delay (~p95 of the provider's recent latency, as estimated
	// by the client's rpc.Pool from every call it makes to that address)
	// is raced against the page's next copy — or, for a k >= 2 stripe,
	// its reconstruction — and the first usable response wins. Latency estimates are kept with hedging off too. Set by
	// the benchmark's write-verification pass (benchmark/workload.go
	// verifyWrites) and by the tests that price the hedge against its
	// absence (hedge_test.go).
	DisableHedging bool
	// Tracer records spans for this client's operations and propagates
	// them to every service the operation touches (docs/observability.md),
	// and receives the client's connectivity events: dial-failure bursts
	// and circuit-breaker transitions. Nil disables both; the operation
	// hot path then stays allocation-free. Sampling policy is the
	// tracer's.
	Tracer *trace.Tracer
	// SlowThreshold, when positive and tracing is enabled, dumps the
	// locally recorded span tree of any sampled operation slower than it
	// through log.Printf — the slow-request log.
	SlowThreshold time.Duration
}

// Client talks to one deployment of the service. It is safe for
// concurrent use; the paper's experiments run one client per node, each
// performing many concurrent RPCs.
type Client struct {
	opts Options
	pool *rpc.Pool
	vm   *vmanager.GroupClient
	ms   *mstore.Client

	provMu    sync.RWMutex
	providers map[uint32]string

	// repairSem bounds concurrent background read-repair pushes; when it
	// is saturated further repairs are dropped (the repair agent or a
	// later read retries them).
	repairSem chan struct{}

	// Completed operations and the bytes they moved.
	Writes       stats.Counter
	Reads        stats.Counter
	BytesWritten stats.Counter
	BytesRead    stats.Counter
	// ReadRepairs counts pages this client re-pushed to providers that
	// had lost them, after a read served them from another slot.
	ReadRepairs stats.Counter
	// VersionTrips counts reads that asked the version manager for the
	// latest published version: every ReadLatest, and a Read(v) only when
	// v is above its handle's published watermark (Blob).
	VersionTrips stats.Counter
	// Erasure-coding counters (docs/erasure.md): DegradedReads counts
	// k >= 2 stripe decodes the read path performed because a data shard
	// was unreachable or slow; ReconstructedPages the pages those decodes
	// produced; ParityBytes the parity payload this client computed and
	// uploaded on writes (rs(1,m) copies are not computed).
	DegradedReads      stats.Counter
	ReconstructedPages stats.Counter
	ParityBytes        stats.Counter
	// Hedged-read counters (docs/robustness.md): HedgedReads counts
	// hedges — fetches from a next copy, and stripe reconstructions —
	// started because a page fetch outlived its provider's adaptive
	// hedge delay; HedgeWins counts pages a hedge served.
	HedgedReads stats.Counter
	HedgeWins   stats.Counter

	// clusterRed is the redundancy mode the provider manager advertises,
	// captured at connect; the effective creation mode when
	// Options.Redundancy is zero.
	clusterRed erasure.Redundancy
}

// NewClient connects to a deployment.
func NewClient(ctx context.Context, opts Options) (*Client, error) {
	if opts.Network == nil {
		return nil, errors.New("core: Options.Network is required")
	}
	if len(opts.VManagerShards) != 1 || len(opts.VManagerShards[0]) == 0 {
		return nil, fmt.Errorf("core: Options.VManagerShards needs exactly one replica group, got %v", opts.VManagerShards)
	}
	if opts.MetaReplicas < 1 {
		opts.MetaReplicas = 1
	}
	pool := rpc.NewPool(opts.Network)
	pool.SetTracer(opts.Tracer)
	// Per-peer circuit breakers (docs/robustness.md): a provider whose
	// calls persistently fail or crawl is asked last — a read defers it
	// to the end of each page's walk, and asks a k >= 2 page's slot on it
	// only for a stripe that cannot be decoded without it — until a
	// success after the open window closes its breaker.
	pool.EnableBreakers()
	kv, err := dht.NewDirectoryClient(ctx, pool, opts.MetaDirAddr, opts.MetaReplicas)
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("core: connect metadata directory: %w", err)
	}
	c := &Client{
		opts:      opts,
		pool:      pool,
		vm:        vmanager.NewGroupClient(pool, opts.VManagerShards[0]),
		ms:        mstore.New(kv, opts.CacheNodes),
		providers: make(map[uint32]string),
		repairSem: make(chan struct{}, 4),
	}
	if err := c.refreshProviders(ctx); err != nil {
		pool.Close()
		return nil, err
	}
	return c, nil
}

// Close releases all connections.
func (c *Client) Close() { c.pool.Close() }

// Meta exposes the metadata client (benchmarks measure metadata phases
// directly; the GC walks trees through it).
func (c *Client) Meta() *mstore.Client { return c.ms }

// VersionManager exposes the typed version manager client.
func (c *Client) VersionManager() *vmanager.GroupClient { return c.vm }

// Pool exposes the RPC pool (shared by auxiliary agents like the GC).
func (c *Client) Pool() *rpc.Pool { return c.pool }

// Tracer returns the tracer this client was configured with (nil when
// tracing is disabled). Auxiliary agents (repair, GC) root their own
// operations on it.
func (c *Client) Tracer() *trace.Tracer { return c.opts.Tracer }

// AllProviders lists every registered data provider (used by the GC to
// broadcast deletions).
func (c *Client) AllProviders(ctx context.Context) ([]pmanager.ProviderInfo, error) {
	ms, err := pmanager.FetchMembers(ctx, c.pool, c.opts.PManagerAddr)
	if err != nil {
		return nil, err
	}
	out := make([]pmanager.ProviderInfo, len(ms.Members))
	for i, m := range ms.Members {
		out[i] = pmanager.ProviderInfo{ID: m.ID, Addr: m.Addr}
	}
	return out, nil
}

// ClusterRedundancy returns the redundancy mode the provider manager
// advertised when this client connected (diagnostics; blobctl stats
// prints it).
func (c *Client) ClusterRedundancy() erasure.Redundancy {
	c.provMu.RLock()
	defer c.provMu.RUnlock()
	return c.clusterRed
}

// creationRedundancy is the mode CreateBlob uses: the client's explicit
// option, else rs(1, DataReplicas-1) for more than one copy, else
// the deployment's advertised mode, else rs(1,0).
func (c *Client) creationRedundancy() erasure.Redundancy {
	switch red := c.ClusterRedundancy(); {
	case c.opts.Redundancy.K > 0:
		return c.opts.Redundancy
	case c.opts.DataReplicas > 1:
		return erasure.Redundancy{K: 1, M: c.opts.DataReplicas - 1}
	case red.K > 0:
		return red
	}
	return erasure.Redundancy{K: 1}
}

// refreshProviders refetches the provider ID -> address map and the
// advertised redundancy mode.
func (c *Client) refreshProviders(ctx context.Context) error {
	ms, err := pmanager.FetchMembers(ctx, c.pool, c.opts.PManagerAddr)
	if err != nil {
		return fmt.Errorf("core: fetch providers: %w", err)
	}
	c.provMu.Lock()
	for _, m := range ms.Members {
		c.providers[m.ID] = m.Addr
	}
	c.clusterRed = ms.Redundancy
	c.provMu.Unlock()
	return nil
}

// providerAddr resolves a provider ID, refreshing the directory once on a
// miss (a new provider may have joined since the last refresh).
func (c *Client) providerAddr(ctx context.Context, id uint32) (string, error) {
	c.provMu.RLock()
	addr, ok := c.providers[id]
	c.provMu.RUnlock()
	if ok {
		return addr, nil
	}
	if err := c.refreshProviders(ctx); err != nil {
		return "", err
	}
	c.provMu.RLock()
	addr, ok = c.providers[id]
	c.provMu.RUnlock()
	if !ok {
		return "", fmt.Errorf("core: unknown provider id %d", id)
	}
	return addr, nil
}

// cachedProviderAddr resolves a provider ID from the local map only —
// no directory refresh — for best-effort paths (hedges, breaker-aware
// routing) that must never add a round trip of their own.
func (c *Client) cachedProviderAddr(id uint32) (string, bool) {
	c.provMu.RLock()
	addr, ok := c.providers[id]
	c.provMu.RUnlock()
	return addr, ok
}

// endRoot completes a traced operation's root span and, when the
// operation crossed the slow threshold, dumps the locally recorded
// span tree to the log with its byte counts and retry/degraded
// annotations. All no-op for untraced (nil op) operations.
func (c *Client) endRoot(op *trace.Op, d time.Duration, err error) {
	op.EndErr(err)
	if op == nil {
		return
	}
	th := c.opts.SlowThreshold
	if th <= 0 || d < th {
		return
	}
	tree := trace.BuildTree(c.opts.Tracer.SpansFor(op.TraceID()))
	log.Printf("core: slow request: %v (threshold %v), trace %016x\n%s",
		d, th, op.TraceID(), trace.FormatTree(tree))
}

// newWriteID generates a globally unique write identity.
func newWriteID() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("core: write id: %w", err)
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1 // zero is reserved for "zero page"
	}
	return id, nil
}

// CreateBlob allocates a new blob (ALLOC): capacityBytes of virtual,
// allocate-on-write storage in pageSize pages, in the client's
// effective redundancy mode (Options.Redundancy, else the deployment's
// advertised mode). The mode is recorded in the blob's metadata and
// fixed for its lifetime.
func (c *Client) CreateBlob(ctx context.Context, pageSize, capacityBytes uint64) (*Blob, error) {
	red := c.creationRedundancy()
	id, err := c.vm.CreateBlob(ctx, pageSize, capacityBytes, red)
	if err != nil {
		return nil, err
	}
	return &Blob{
		c: c, id: id, pageSize: pageSize, totalPages: capacityBytes / pageSize, red: red,
	}, nil
}

// OpenBlob binds to an existing blob; its redundancy mode comes from
// the metadata recorded at creation, never from this client's options.
func (c *Client) OpenBlob(ctx context.Context, id uint64) (*Blob, error) {
	info, err := c.vm.Info(ctx, id)
	if err != nil {
		return nil, err
	}
	b := &Blob{
		c: c, id: id, pageSize: info.PageSize, totalPages: info.TotalPages, red: info.Redundancy,
	}
	b.notePublished(info.LatestPublished)
	return b, nil
}

// Blob is a handle on one versioned binary string.
type Blob struct {
	c          *Client
	id         uint64
	pageSize   uint64
	totalPages uint64
	red        erasure.Redundancy

	// published is the handle's published watermark: the newest version
	// a version-manager reply has told this handle is published (OpenBlob,
	// Latest, ReadLatest, WaitVersion, NewReader, a Read that had to ask,
	// the blocking commit of its own Write or Append). Publication is
	// forever — a published snapshot is immutable — so the watermark only
	// rises, and Read(v) of a v at or below it skips the version-manager
	// round trip. It never holds a value the caller merely asserted
	// (ReadPinned), and an unpublished version is never remembered: a
	// Read above the watermark always asks.
	published atomic.Uint64
}

// notePublished raises the published watermark to v, a version some
// version-manager reply just reported published.
func (b *Blob) notePublished(v meta.Version) {
	for {
		cur := b.published.Load()
		if v <= cur || b.published.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Redundancy returns the blob's fixed redundancy mode.
func (b *Blob) Redundancy() erasure.Redundancy { return b.red }

// ID returns the blob's globally unique identifier.
func (b *Blob) ID() uint64 { return b.id }

// PageSize returns the blob's page size in bytes.
func (b *Blob) PageSize() uint64 { return b.pageSize }

// CapacityBytes returns the blob's maximum size.
func (b *Blob) CapacityBytes() uint64 { return b.totalPages * b.pageSize }

// Latest asks the version manager for the newest published version and
// its size in bytes. It always asks: another client's acknowledged write
// is visible to the very next call.
func (b *Blob) Latest(ctx context.Context) (meta.Version, uint64, error) {
	latest, size, err := b.c.vm.Latest(ctx, b.id)
	if err == nil {
		b.notePublished(latest)
	}
	return latest, size, err
}

// VersionSize returns the logical size of a version in bytes.
func (b *Blob) VersionSize(ctx context.Context, v meta.Version) (uint64, error) {
	_, size, err := b.c.vm.VersionInfo(ctx, b.id, v)
	return size, err
}

// WaitVersion blocks until version v is published (readers pacing
// writers), polling the version manager — not at all when the handle
// already knows v published.
func (b *Blob) WaitVersion(ctx context.Context, v meta.Version) error {
	if v <= b.published.Load() {
		return nil
	}
	backoff := time.Millisecond
	var timer *time.Timer
	for {
		latest, _, err := b.Latest(ctx)
		if err != nil {
			return err
		}
		if latest >= v {
			return nil
		}
		if timer == nil {
			timer = time.NewTimer(backoff)
			defer timer.Stop()
		} else {
			timer.Reset(backoff) // drained: the last wait ended on its tick
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}
