// Package blob is a distributed, RAM-based storage service for massive
// versioned binary strings with lock-free concurrent fine-grain access —
// a from-scratch Go reproduction of:
//
//	Bogdan Nicolae, Gabriel Antoniu, Luc Bougé. "Enabling Lock-Free
//	Concurrent Fine-Grain Access to Massive Distributed Data:
//	Application to Supernovae Detection." IEEE CLUSTER 2008.
//
// A blob is a huge byte string (TB-scale, virtual, allocate-on-write)
// striped into fixed-size pages over many data providers. Every WRITE
// stores fresh pages and publishes a new immutable snapshot (version);
// per-version segment-tree metadata dispersed over a DHT of metadata
// providers maps (version, offset, size) to pages. The only serialized
// step of any operation is a single small RPC to the version manager,
// which assigns version numbers and precomputes the tree "weaving" each
// writer needs — so reads and writes otherwise proceed with full
// parallelism and no locks on the string.
//
// Data providers are RAM-only by default, as in the paper. Setting
// ClusterConfig.DataDir (or blobnode's -data-dir) switches them to the
// crash-recoverable persistent page store in internal/diskstore: pages
// land in checksummed append-only segment files, a restarted provider
// rebuilds its index by scanning them (truncating a torn final record),
// and a background compactor reclaims the disk freed by garbage
// collection. An optional write-through RAM cache tier keeps hot pages
// served at memory speed.
//
// Replication is self-healing: reads fail over between page replicas
// and re-push what they serve to replicas that missed it, and the
// Repairer agent restores full redundancy after a provider crash or
// disk loss by directing degraded providers to pull missing pages from
// healthy peers (protocol spec: docs/replication.md).
//
// Full replication is not the only redundancy mode: rs(k,m)
// erasure-coded page groups (Redundancy, spec: docs/erasure.md) stripe
// each write over k+m distinct providers with m Reed-Solomon parity
// pages per k data pages, matching m-failure tolerance at (k+m)/k
// storage instead of (m+1)x. Reads decode degraded stripes inline and
// the Repairer heals by reconstruction — pulling k survivors and
// re-pushing only missing shards.
//
// This package is the public facade: it re-exports the client API
// (internal/core), the in-process cluster laboratory (internal/cluster),
// the supernova-survey application (internal/sky) and the garbage
// collector (internal/gc). Example programs live under examples/; the
// paper's evaluation is regenerated by the benchmarks in bench_test.go
// and by cmd/blobbench.
package blob

import (
	"context"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/erasure"
	"blob/internal/gc"
	"blob/internal/meta"
	"blob/internal/provider"
	"blob/internal/repair"
	"blob/internal/rpc"
)

// Version numbers a published snapshot of a blob. Versions are
// consecutive integers starting at 1; version 0 is the initial all-zero
// string.
type Version = meta.Version

// Client is a connection to a deployment of the service.
type Client = core.Client

// Blob is a handle on one versioned binary string.
type Blob = core.Blob

// Options configures a Client (addresses of the version-manager group,
// provider manager and metadata directory, replication factors, cache).
type Options = core.Options

// WriteResult reports a completed write with phase timings.
type WriteResult = core.WriteResult

// ReadResult reports a completed read with phase timings.
type ReadResult = core.ReadResult

// Redundancy selects a page redundancy mode: the zero value is full
// replication (Options.DataReplicas copies), Redundancy{K: 4, M: 2} is
// rs(4,2) erasure-coded stripes (docs/erasure.md).
type Redundancy = erasure.Redundancy

// ParseRedundancy parses "replicate" or "rs(k,m)".
func ParseRedundancy(s string) (Redundancy, error) { return erasure.ParseRedundancy(s) }

// Errors re-exported from the client.
var (
	// ErrNotPublished is returned by Read for versions newer than the
	// latest published one.
	ErrNotPublished = core.ErrNotPublished
	// ErrPageUnavailable is returned when a page is unreachable on all
	// of its replicas.
	ErrPageUnavailable = core.ErrPageUnavailable
)

// NewClient connects to a running deployment.
func NewClient(ctx context.Context, opts Options) (*Client, error) {
	return core.NewClient(ctx, opts)
}

// TCP is the real-network transport for Options.Network; deployments
// started with cmd/blobnode are reached through it.
var TCP rpc.Network = rpc.TCP{}

// ClusterConfig configures an in-process deployment (test/benchmark
// laboratory over the simulated network).
type ClusterConfig = cluster.Config

// Cluster is a running in-process deployment.
type Cluster = cluster.Cluster

// Launch starts an in-process deployment: a version-manager group (one
// shard of one replica unless configured otherwise), a provider
// manager with metadata directory, and the configured storage nodes,
// all over the simulated network fabric.
func Launch(cfg ClusterConfig) (*Cluster, error) {
	return cluster.Launch(cfg)
}

// PageStore is the storage backend interface of one data provider: the
// in-RAM store, the persistent diskstore-backed store and the cached
// stack all implement it, and Cluster.DataStores exposes the running
// backends. It is the extension point for future tiered or
// erasure-coded backends.
type PageStore = provider.PageStore

// ProviderStats is one data provider's usage snapshot, including the
// disk tier (segment bytes, live ratio) and cache tier counters for
// persistent providers.
type ProviderStats = provider.Stats

// Repairer is the replica repair agent: it walks blob metadata, asks
// providers what they hold (bloom digests, never page lists) and directs
// degraded providers to pull missing pages from healthy peers. The
// protocol is specified in docs/replication.md; clusters run it
// automatically via ClusterConfig.RepairInterval, blobnode via the
// repairer role, and blobctl's repair command drives it by hand.
type Repairer = repair.Repairer

// RepairReport summarizes one repair pass.
type RepairReport = repair.Report

// NewRepairer creates a repair agent operating through a client.
func NewRepairer(c *Client) *Repairer { return repair.New(c) }

// Collector garbage-collects blob versions below a horizon.
type Collector = gc.Collector

// GCReport summarizes one collection run.
type GCReport = gc.Report

// NewCollector creates a garbage collector operating through a client.
func NewCollector(c *Client) *Collector { return gc.New(c) }
