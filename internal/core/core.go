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
	"blob/internal/events"
	"blob/internal/meta"
	"blob/internal/mstore"
	"blob/internal/pmanager"
	"blob/internal/provider"
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
	// ErrChecksum is returned when a page fails integrity verification on
	// every replica.
	ErrChecksum = errors.New("core: page checksum mismatch")
	// ErrPageUnavailable is returned when a page cannot be fetched from
	// any replica.
	ErrPageUnavailable = errors.New("core: page unavailable on all replicas")
)

// Options configures a Client.
type Options struct {
	// Network provides connectivity (rpc.TCP{} or a netsim host).
	Network rpc.Network
	// VManagerShards addresses the version plane, a sharded+replicated
	// vmanager group: one replica address list per shard
	// (docs/vmanager-group.md); a lone version manager is
	// [][]string{{addr}}. Blobs route to shards by id hash with NotLeader
	// redirect handling.
	VManagerShards [][]string
	// PManagerAddr is the provider manager's RPC address.
	PManagerAddr string
	// MetaDirAddr is the metadata directory's RPC address (DHT membership).
	MetaDirAddr string
	// DataReplicas is the number of copies of each page (default 1).
	// Ignored for blobs in rs(k,m) mode, whose redundancy is parity.
	DataReplicas int
	// Redundancy selects the redundancy mode for blobs this client
	// creates (docs/erasure.md): the zero value defers to the mode the
	// provider manager advertises for the deployment (falling back to
	// full replication), rs(k,m) forces erasure-coded stripes. Blobs
	// opened with OpenBlob always use the mode recorded at their
	// creation.
	Redundancy erasure.Redundancy
	// MetaReplicas is the DHT replication factor for tree nodes (default 1).
	MetaReplicas int
	// CacheNodes bounds the client metadata cache; 0 disables it,
	// negative selects the paper's 2^20.
	CacheNodes int
	// DisableHedging turns off hedged reads (docs/robustness.md):
	// without it, a page fetch that outlives its provider's adaptive
	// hedge delay (~p95 of that provider's recent latency) is raced
	// against the next replica — or, for rs(k,m) blobs, served by early
	// stripe reconstruction — and the first usable response wins. Set by
	// the benchmark's write-verification pass (benchmark/workload.go
	// verifyWrites) and by the tests that price the hedge against its
	// absence (hedge_test.go).
	DisableHedging bool
	// Breakers enables per-peer circuit breakers on the client's RPC
	// pool (docs/robustness.md): a provider whose calls persistently
	// fail or crawl is failed fast and routed around — replica routing
	// treats an open breaker like a bloom miss, never skipping the last
	// replica holding a page — until a background probe finds the peer
	// healthy again.
	Breakers bool
	// Journal, when non-nil, receives this client's connectivity
	// events: dial-failure bursts and circuit-breaker transitions.
	Journal *events.Journal
	// Tracer records spans for this client's operations and propagates
	// them to every service the operation touches (docs/observability.md).
	// Nil disables tracing; the operation hot path then stays
	// allocation-free. Sampling policy is the tracer's.
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

	// Bloom-hinted replica routing (docs/replication.md §6): per-provider
	// holdings digests refreshed after a definite page miss — bulk-seeded
	// from the provider manager's heartbeat-piggybacked copies, with a
	// direct MListWrites probe as the fallback. A fresh digest lets later
	// fetches skip replicas that definitely lack a page before paying the
	// RPC round trip; entries expire after digestTTL so a repaired
	// provider is probed again.
	digestMu     sync.RWMutex
	digests      map[uint32]digestEntry
	digestSeedAt time.Time // last MDigests bulk seed (throttled to digestTTL)

	// repairSem bounds concurrent background read-repair pushes; when it
	// is saturated further repairs are dropped (the repair agent or a
	// later read retries them).
	repairSem chan struct{}

	// lat tracks per-provider fetch latency; the read path derives each
	// provider's adaptive hedge delay from it (latency.go).
	lat *latencies

	// Completed operations and the bytes they moved.
	Writes       stats.Counter
	Reads        stats.Counter
	BytesWritten stats.Counter
	BytesRead    stats.Counter
	// ReadRepairs counts page replicas this client re-pushed to degraded
	// providers after a read served them from a healthy replica;
	// BloomSkips counts replica probes avoided by digest routing.
	ReadRepairs stats.Counter
	BloomSkips  stats.Counter
	// VersionTrips counts reads that asked the version manager for the
	// latest published version: every ReadLatest, and a Read(v) only when
	// v is above its handle's published watermark (Blob).
	VersionTrips stats.Counter
	// Erasure-coding counters (docs/erasure.md): DegradedReads counts
	// stripe decodes the read path performed because a data shard was
	// unreachable; ReconstructedPages the pages those decodes produced;
	// ParityBytes the parity payload this client computed and uploaded
	// on writes.
	DegradedReads      stats.Counter
	ReconstructedPages stats.Counter
	ParityBytes        stats.Counter
	// Hedged-read counters (docs/robustness.md): HedgedReads counts
	// hedge RPCs issued because a page fetch outlived its provider's
	// adaptive hedge delay; HedgeWins counts pages actually served by
	// hedge data (replicate mode) or by the early stripe reconstruction
	// a straggling shard provider was abandoned for (rs mode).
	HedgedReads stats.Counter
	HedgeWins   stats.Counter

	// clusterRed is the redundancy mode the provider manager advertises,
	// captured at connect; the effective creation mode when
	// Options.Redundancy is zero.
	clusterRed erasure.Redundancy
}

// digestTTL bounds how long a fetched provider digest steers replica
// routing. Short enough that a provider healed behind the client's back
// is probed again promptly; long enough to keep a dead replica from
// being re-probed on every page of a large read.
const digestTTL = 5 * time.Second

// digestEntry caches one provider's MListWrites digest. ok records
// whether the provider produced a digest at all — a provider that
// cannot summarize its holdings is never skipped.
type digestEntry struct {
	d  provider.Digest
	ok bool
	at time.Time
}

// NewClient connects to a deployment.
func NewClient(ctx context.Context, opts Options) (*Client, error) {
	if opts.Network == nil {
		return nil, errors.New("core: Options.Network is required")
	}
	if len(opts.VManagerShards) == 0 {
		return nil, errors.New("core: Options.VManagerShards is required")
	}
	if opts.DataReplicas < 1 {
		opts.DataReplicas = 1
	}
	if opts.MetaReplicas < 1 {
		opts.MetaReplicas = 1
	}
	pool := rpc.NewPool(opts.Network)
	pool.SetJournal(opts.Journal)
	if opts.Breakers {
		// Latency tripping is on for clients: the gray failure worth
		// detecting is the provider that answers everything, slowly —
		// error-rate alone never sees it. 250ms of sustained success
		// latency is far beyond any healthy page fetch and comfortably
		// below the multi-second stalls the chaos harness injects.
		pool.EnableBreakers(rpc.BreakerConfig{LatencyTrip: 250 * time.Millisecond})
	}
	kv, err := dht.NewDirectoryClient(ctx, pool, opts.MetaDirAddr, opts.MetaReplicas)
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("core: connect metadata directory: %w", err)
	}
	c := &Client{
		opts:      opts,
		pool:      pool,
		vm:        vmanager.NewGroupClient(pool, opts.VManagerShards),
		ms:        mstore.New(kv, opts.CacheNodes),
		providers: make(map[uint32]string),
		digests:   make(map[uint32]digestEntry),
		repairSem: make(chan struct{}, 4),
		lat:       newLatencies(),
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
	d, err := pmanager.FetchProviders(ctx, c.pool, c.opts.PManagerAddr)
	return d.Providers, err
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
// option (an rs geometry, or a pinned "replicate" overriding an
// advertised rs default), else the deployment's advertised mode.
func (c *Client) creationRedundancy() erasure.Redundancy {
	if c.opts.Redundancy.IsRS() || c.opts.Redundancy.Pinned {
		return erasure.Redundancy{K: c.opts.Redundancy.K, M: c.opts.Redundancy.M}
	}
	return c.ClusterRedundancy()
}

// refreshProviders refetches the provider ID -> address map and the
// advertised redundancy mode.
func (c *Client) refreshProviders(ctx context.Context) error {
	d, err := pmanager.FetchProviders(ctx, c.pool, c.opts.PManagerAddr)
	if err != nil {
		return fmt.Errorf("core: fetch providers: %w", err)
	}
	c.provMu.Lock()
	for _, p := range d.Providers {
		c.providers[p.ID] = p.Addr
	}
	c.clusterRed = d.Redundancy
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

// observeFetch feeds one page-fetch outcome into the latency tracker
// (successes only — a failure's duration says nothing about the
// provider's service time) and the pool's circuit breaker for the
// provider. The async fetch fan-outs bypass the pool's synchronous
// call path, so this is how their evidence reaches both.
func (c *Client) observeFetch(addr string, err error, d time.Duration) {
	if err == nil {
		c.lat.observe(addr, d)
	}
	c.pool.Observe(addr, err, d)
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
