package vmanager

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blob/internal/backoff"
	"blob/internal/dht"
	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/rpc"
	"blob/internal/wire"
)

// The version space is sharded by blob id over the same consistent-hash
// ring the data plane uses: shard i is ring node i+1, and a blob lives
// on whichever shard the ring's Primary places its hashed id. Every
// client computes the same placement locally, so routing needs no
// directory — only the NotLeader redirect dance within the owning
// shard (docs/vmanager-group.md §4).

var shardRings sync.Map // int (shard count) -> *dht.Ring

func ringFor(nshards int) *dht.Ring {
	if v, ok := shardRings.Load(nshards); ok {
		return v.(*dht.Ring)
	}
	nodes := make([]dht.NodeInfo, nshards)
	for i := range nodes {
		nodes[i] = dht.NodeInfo{ID: uint64(i + 1)}
	}
	ring := dht.NewRing(nodes)
	actual, _ := shardRings.LoadOrStore(nshards, ring)
	return actual.(*dht.Ring)
}

// ShardOf maps a blob id to its owning shard in an nshards-way group.
func ShardOf(nshards int, blob uint64) int {
	if nshards <= 1 {
		return 0
	}
	// Mix first: blob ids are small and sequential, ring points are
	// uniform hashes — raw ids would all land on one shard.
	n, ok := ringFor(nshards).Primary(wire.Mix64(blob))
	if !ok {
		return 0
	}
	return int(n.ID - 1)
}

// ParseGroupAddrs parses the flag syntax for a vmanager group:
// semicolon-separated shards, comma-separated replicas within a shard
// ("a:1,b:1;c:1,d:1"). A single plain address is a 1x1 group.
func ParseGroupAddrs(s string) ([][]string, error) {
	var shards [][]string
	for _, shard := range strings.Split(s, ";") {
		var reps []string
		for _, addr := range strings.Split(shard, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return nil, fmt.Errorf("vmanager: empty replica entry in group address %q", s)
			}
			reps = append(reps, addr)
		}
		shards = append(shards, reps)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("vmanager: empty group address %q", s)
	}
	return shards, nil
}

// GroupClient routes vmanager calls across a sharded, replicated
// group. Per-blob calls go to the blob's owning shard; within a shard
// the client remembers the last known leader and follows NotLeader
// redirects, falling back to a scan of the replicas (with backoff) when
// the shard is mid-handoff.
type GroupClient struct {
	pool   *rpc.Pool
	shards [][]string
	leader []atomic.Int32 // last known leader index per shard
	rr     atomic.Uint64  // round-robin cursor for CreateBlob
	// MaxAttempts bounds the per-call retry loop (default 4 full
	// passes over the shard's replicas).
	maxAttempts int
}

// NewGroupClient builds a client for the given shard/replica address
// matrix; every shard needs at least one replica.
func NewGroupClient(pool *rpc.Pool, shards [][]string) *GroupClient {
	g := &GroupClient{pool: pool, shards: shards, leader: make([]atomic.Int32, len(shards))}
	g.maxAttempts = 4
	for i := range g.shards {
		if len(g.shards[i]) == 0 {
			panic("vmanager: shard with no replicas")
		}
	}
	return g
}

// Shards returns the group's address matrix.
func (g *GroupClient) Shards() [][]string { return g.shards }

// shardOf maps a blob to its shard index.
func (g *GroupClient) shardOf(blob uint64) int { return ShardOf(len(g.shards), blob) }

// groupBackoff paces full-pass retries while a shard is mid-election:
// jittered exponential delays from the shared policy (see
// internal/backoff), replacing the jitter math this file used to
// hand-roll.
var groupBackoff = backoff.Policy{Base: 4 * time.Millisecond, Max: 100 * time.Millisecond}

// call invokes method on the shard's leader, following NotLeader
// redirects and retrying transient unavailability (handoffs, quorum
// loss, dead replicas) on the shard's other replicas with backoff.
func (g *GroupClient) call(ctx context.Context, shard int, method uint32, body []byte) ([]byte, error) {
	reps := g.shards[shard]
	idx := int(g.leader[shard].Load())
	if idx < 0 || idx >= len(reps) {
		idx = 0
	}
	var lastErr error
	pass := 0
	for attempt := 0; attempt < g.maxAttempts*len(reps); attempt++ {
		resp, err := g.pool.Call(ctx, reps[idx], method, body)
		switch {
		case err == nil:
			g.leader[shard].Store(int32(idx))
			return resp, nil
		case ctx.Err() != nil:
			return nil, ctx.Err()
		default:
			if hint, notLeader := ParseNotLeader(err); notLeader {
				lastErr = err
				if hint >= 0 && hint < len(reps) && hint != idx {
					// Redirect straight to the hinted leader.
					idx = hint
					continue
				}
				// Stale hint: scan.
			} else if rpc.IsServerError(err) && !IsUnavailable(err) {
				// A genuine application error from the leader.
				return nil, err
			} else {
				lastErr = err
			}
		}
		idx = (idx + 1) % len(reps)
		if (attempt+1)%len(reps) == 0 {
			// Completed a full pass without a leader: back off so an
			// election can finish.
			if err := groupBackoff.Sleep(ctx, pass); err != nil {
				return nil, err
			}
			pass++
		}
	}
	return nil, fmt.Errorf("vmanager: shard %d unreachable after retries: %w", shard, lastErr)
}

// CreateBlob allocates a blob on some shard of the group (round-robin
// spread); the chosen shard picks an id the ring maps back to it, so
// all later calls route correctly.
func (g *GroupClient) CreateBlob(ctx context.Context, pageSize, capacityBytes uint64, red erasure.Redundancy) (uint64, error) {
	shard := int(g.rr.Add(1)-1) % len(g.shards)
	w := newCreateReq(pageSize, capacityBytes, red)
	resp, err := g.call(ctx, shard, MCreate, w)
	if err != nil {
		return 0, err
	}
	return decodeUint64(resp)
}

// Info fetches blob geometry and published state.
func (g *GroupClient) Info(ctx context.Context, blob uint64) (BlobInfo, error) {
	resp, err := g.call(ctx, g.shardOf(blob), MInfo, encodeUint64(blob))
	if err != nil {
		return BlobInfo{}, err
	}
	return decodeBlobInfo(resp)
}

// AssignVersion requests a version for a write from the blob's shard.
func (g *GroupClient) AssignVersion(ctx context.Context, blob, writeID, offset, length uint64, isAppend bool) (Assignment, error) {
	w := newAssignReq(blob, writeID, offset, length, isAppend)
	resp, err := g.call(ctx, g.shardOf(blob), MAssign, w)
	if err != nil {
		return Assignment{}, err
	}
	return DecodeAssignment(resp)
}

// Commit reports completion of a write; with block it waits for
// publication.
func (g *GroupClient) Commit(ctx context.Context, blob uint64, v meta.Version, block bool) (meta.Version, error) {
	resp, err := g.call(ctx, g.shardOf(blob), MCommit, newCommitReq(blob, v, block))
	if err != nil {
		return 0, err
	}
	return decodeUint64(resp)
}

// Abort withdraws an assigned version.
func (g *GroupClient) Abort(ctx context.Context, blob uint64, v meta.Version) error {
	_, err := g.call(ctx, g.shardOf(blob), MAbort, newAbortReq(blob, v))
	return err
}

// Latest returns the newest published version and its byte size.
func (g *GroupClient) Latest(ctx context.Context, blob uint64) (meta.Version, uint64, error) {
	resp, err := g.call(ctx, g.shardOf(blob), MLatest, encodeUint64(blob))
	if err != nil {
		return 0, 0, err
	}
	return decodeUint64Pair(resp)
}

// VersionInfo reports publication state and size of a version.
func (g *GroupClient) VersionInfo(ctx context.Context, blob uint64, v meta.Version) (published bool, size uint64, err error) {
	resp, err := g.call(ctx, g.shardOf(blob), MVersionInfo, newAbortReq(blob, v))
	if err != nil {
		return false, 0, err
	}
	return decodeBoolUint64(resp)
}

// History fetches write records for versions in (from, to].
func (g *GroupClient) History(ctx context.Context, blob uint64, from, to meta.Version) ([]WriteRecord, error) {
	resp, err := g.call(ctx, g.shardOf(blob), MHistory, newHistoryReq(blob, from, to))
	if err != nil {
		return nil, err
	}
	return DecodeHistory(resp)
}

// Blobs merges the blob lists of every shard — the repair agent's walk
// over the whole version plane.
func (g *GroupClient) Blobs(ctx context.Context) ([]uint64, error) {
	var all []uint64
	for shard := range g.shards {
		resp, err := g.call(ctx, shard, MBlobs, nil)
		if err != nil {
			return nil, fmt.Errorf("vmanager: blobs of shard %d: %w", shard, err)
		}
		ids, err := decodeUint64List(resp)
		if err != nil {
			return nil, err
		}
		all = append(all, ids...)
	}
	return all, nil
}

// --- request/response codecs ---

func encodeUint64(v uint64) []byte {
	w := wire.NewWriter(8)
	w.Uint64(v)
	return w.Bytes()
}

func decodeUint64(body []byte) (uint64, error) {
	r := wire.NewReader(body)
	v := r.Uint64()
	return v, r.Err()
}

func decodeUint64Pair(body []byte) (uint64, uint64, error) {
	r := wire.NewReader(body)
	a := r.Uint64()
	b := r.Uint64()
	return a, b, r.Err()
}

func decodeBoolUint64(body []byte) (bool, uint64, error) {
	r := wire.NewReader(body)
	b := r.Bool()
	v := r.Uint64()
	return b, v, r.Err()
}

func decodeUint64List(body []byte) ([]uint64, error) {
	r := wire.NewReader(body)
	ids := r.Uint64Slice()
	return ids, r.Err()
}

func decodeBlobInfo(body []byte) (BlobInfo, error) {
	r := wire.NewReader(body)
	info := BlobInfo{
		ID:              r.Uint64(),
		PageSize:        r.Uint64(),
		TotalPages:      r.Uint64(),
		LatestPublished: r.Uint64(),
		SizeBytes:       r.Uint64(),
	}
	info.Redundancy = erasure.Redundancy{K: int(r.Uint8()), M: int(r.Uint8())}
	return info, r.Err()
}

func newCreateReq(pageSize, capacityBytes uint64, red erasure.Redundancy) []byte {
	w := wire.NewWriter(18)
	w.Uint64(pageSize)
	w.Uint64(capacityBytes)
	w.Uint8(uint8(red.K))
	w.Uint8(uint8(red.M))
	return w.Bytes()
}

func newAssignReq(blob, writeID, offset, length uint64, isAppend bool) []byte {
	w := wire.NewWriter(40)
	w.Uint64(blob)
	w.Uint64(writeID)
	w.Uint64(offset)
	w.Uint64(length)
	w.Bool(isAppend)
	return w.Bytes()
}

func newCommitReq(blob uint64, v meta.Version, block bool) []byte {
	w := wire.NewWriter(24)
	w.Uint64(blob)
	w.Uint64(v)
	w.Bool(block)
	return w.Bytes()
}

func newAbortReq(blob uint64, v meta.Version) []byte {
	w := wire.NewWriter(16)
	w.Uint64(blob)
	w.Uint64(v)
	return w.Bytes()
}

func newHistoryReq(blob uint64, from, to meta.Version) []byte {
	w := wire.NewWriter(24)
	w.Uint64(blob)
	w.Uint64(from)
	w.Uint64(to)
	return w.Bytes()
}

// FetchStatus polls one replica's MVmStatus directly (no leader
// routing) — the raw material for blobctl vmstatus and the
// fault-injection harness's convergence waits.
func (g *GroupClient) FetchStatus(ctx context.Context, shard, replica int) (ReplicaStatus, error) {
	if shard < 0 || shard >= len(g.shards) || replica < 0 || replica >= len(g.shards[shard]) {
		return ReplicaStatus{}, fmt.Errorf("vmanager: no replica s%dr%d in group", shard, replica)
	}
	resp, err := g.pool.Call(ctx, g.shards[shard][replica], MVmStatus, nil)
	if err != nil {
		return ReplicaStatus{}, err
	}
	return DecodeReplicaStatus(resp)
}
