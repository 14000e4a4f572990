package vmanager

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"blob/internal/backoff"
	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/rpc"
	"blob/internal/wire"
)

// ParseGroupAddrs parses the flag syntax for the version plane's
// replica group: comma-separated replica addresses ("a:1,b:1,c:1"). A
// single plain address is a one-replica group.
func ParseGroupAddrs(s string) ([]string, error) {
	if strings.Contains(s, ";") {
		return nil, fmt.Errorf("vmanager: group address %q: the version plane is one replica group, its replicas comma-separated", s)
	}
	var reps []string
	for _, addr := range strings.Split(s, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("vmanager: empty replica entry in group address %q", s)
		}
		reps = append(reps, addr)
	}
	return reps, nil
}

// GroupClient calls the version plane's replica group. It remembers the
// last known leader and follows NotLeader redirects, falling back to a
// scan of the replicas (with backoff) while the group is mid-handoff.
type GroupClient struct {
	pool     *rpc.Pool
	replicas []string
	leader   atomic.Int32 // last known leader index
}

// maxAttempts bounds a call's retry loop in full passes over the
// replicas.
const maxAttempts = 4

// NewGroupClient builds a client for the group's replica addresses;
// there must be at least one.
func NewGroupClient(pool *rpc.Pool, replicas []string) *GroupClient {
	if len(replicas) == 0 {
		panic("vmanager: group with no replicas")
	}
	return &GroupClient{pool: pool, replicas: replicas}
}

// groupBackoff paces full-pass retries while the group is mid-election
// (jittered exponential delays, internal/backoff).
var groupBackoff = backoff.Policy{Base: 4 * time.Millisecond, Max: 100 * time.Millisecond}

// call invokes method on the group's leader, following NotLeader
// redirects and retrying transient unavailability (handoffs, quorum
// loss, dead replicas) on the other replicas with backoff.
func (g *GroupClient) call(ctx context.Context, method uint32, body []byte) ([]byte, error) {
	reps := g.replicas
	idx := int(g.leader.Load())
	if idx < 0 || idx >= len(reps) {
		idx = 0
	}
	var lastErr error
	pass := 0
	for attempt := 0; attempt < maxAttempts*len(reps); attempt++ {
		resp, err := g.pool.Call(ctx, reps[idx], method, body)
		switch {
		case err == nil:
			g.leader.Store(int32(idx))
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
	return nil, fmt.Errorf("vmanager: group unreachable after retries: %w", lastErr)
}

// CreateBlob allocates a blob and returns its id.
func (g *GroupClient) CreateBlob(ctx context.Context, pageSize, capacityBytes uint64, red erasure.Redundancy) (uint64, error) {
	resp, err := g.call(ctx, MCreate, newCreateReq(pageSize, capacityBytes, red))
	if err != nil {
		return 0, err
	}
	return decodeUint64(resp)
}

// Info fetches blob geometry and published state.
func (g *GroupClient) Info(ctx context.Context, blob uint64) (BlobInfo, error) {
	resp, err := g.call(ctx, MInfo, encodeUint64(blob))
	if err != nil {
		return BlobInfo{}, err
	}
	return decodeBlobInfo(resp)
}

// AssignVersion requests a version for a write.
func (g *GroupClient) AssignVersion(ctx context.Context, blob, writeID, offset, length uint64, isAppend bool) (Assignment, error) {
	resp, err := g.call(ctx, MAssign, newAssignReq(blob, writeID, offset, length, isAppend))
	if err != nil {
		return Assignment{}, err
	}
	return DecodeAssignment(resp)
}

// Commit reports completion of a write; with block it waits for
// publication.
func (g *GroupClient) Commit(ctx context.Context, blob uint64, v meta.Version, block bool) (meta.Version, error) {
	resp, err := g.call(ctx, MCommit, newCommitReq(blob, v, block))
	if err != nil {
		return 0, err
	}
	return decodeUint64(resp)
}

// Abort withdraws an assigned version.
func (g *GroupClient) Abort(ctx context.Context, blob uint64, v meta.Version) error {
	_, err := g.call(ctx, MAbort, newAbortReq(blob, v))
	return err
}

// Latest returns the newest published version and its byte size.
func (g *GroupClient) Latest(ctx context.Context, blob uint64) (meta.Version, uint64, error) {
	resp, err := g.call(ctx, MLatest, encodeUint64(blob))
	if err != nil {
		return 0, 0, err
	}
	return decodeUint64Pair(resp)
}

// VersionInfo reports publication state and size of a version.
func (g *GroupClient) VersionInfo(ctx context.Context, blob uint64, v meta.Version) (published bool, size uint64, err error) {
	resp, err := g.call(ctx, MVersionInfo, newAbortReq(blob, v))
	if err != nil {
		return false, 0, err
	}
	return decodeBoolUint64(resp)
}

// History fetches write records for versions in (from, to].
func (g *GroupClient) History(ctx context.Context, blob uint64, from, to meta.Version) ([]WriteRecord, error) {
	resp, err := g.call(ctx, MHistory, newHistoryReq(blob, from, to))
	if err != nil {
		return nil, err
	}
	return DecodeHistory(resp)
}

// Blobs lists every blob of the version plane — the repair agent's
// walk.
func (g *GroupClient) Blobs(ctx context.Context) ([]uint64, error) {
	resp, err := g.call(ctx, MBlobs, nil)
	if err != nil {
		return nil, err
	}
	return decodeUint64List(resp)
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
// routing) — the raw material for blobctl vmstatus.
func (g *GroupClient) FetchStatus(ctx context.Context, replica int) (ReplicaStatus, error) {
	if replica < 0 || replica >= len(g.replicas) {
		return ReplicaStatus{}, fmt.Errorf("vmanager: no replica %d in group", replica)
	}
	resp, err := g.pool.Call(ctx, g.replicas[replica], MVmStatus, nil)
	if err != nil {
		return ReplicaStatus{}, err
	}
	return DecodeReplicaStatus(resp)
}
