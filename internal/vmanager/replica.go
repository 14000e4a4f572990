package vmanager

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/rpc"
	"blob/internal/trace"
	"blob/internal/wire"
)

// Replica wraps a Manager as one member of the version plane's replica
// group (docs/vmanager-group.md). Exactly one replica acts as leader:
// it turns every mutation into a LogRecord, applies it to its Manager
// exactly as a follower would and appends it to the group's publish
// log (propose), and replies to clients — reads included — only
// once a follower quorum holds the log position the reply reflects.
// Followers replay the log; on leader death the deterministic handoff
// below promotes the live replica with the freshest state.
//
// Lock order: Replica.mu before Manager.mu, never the reverse.

// Replication RPC method identifiers (continuing the vmanager 0x05xx
// block).
const (
	MVmAppend  = 0x0510
	MVmStatus  = 0x0511
	MVmState   = 0x0512
	MVmInstall = 0x0513
)

func init() {
	rpc.RegisterMethodName(MVmAppend, "vmanager.MVmAppend")
	rpc.RegisterMethodName(MVmStatus, "vmanager.MVmStatus")
	rpc.RegisterMethodName(MVmState, "vmanager.MVmState")
	rpc.RegisterMethodName(MVmInstall, "vmanager.MVmInstall")
}

// Error vocabulary clients route on. NotLeader carries a redirect hint;
// unavailable errors are transient (quorum loss, partitions, handoffs)
// and worth retrying on another replica.
const (
	notLeaderPrefix   = "vmanager: not leader"
	unavailablePrefix = "vmanager: unavailable"
)

// NotLeaderError builds the redirect error a non-leader replica returns
// to client mutations. leader is the replica index to try next (may be
// the replica's possibly-stale belief).
func NotLeaderError(leader int) error {
	return fmt.Errorf("%s (try replica %d)", notLeaderPrefix, leader)
}

// ParseNotLeader recognizes a NotLeaderError (locally or over RPC) and
// extracts the leader hint (-1 if none parsed).
func ParseNotLeader(err error) (leader int, ok bool) {
	if err == nil {
		return 0, false
	}
	s := err.Error()
	i := strings.Index(s, notLeaderPrefix)
	if i < 0 {
		return 0, false
	}
	leader = -1
	if j := strings.Index(s[i:], "try replica "); j >= 0 {
		fmt.Sscanf(s[i+j:], "try replica %d", &leader)
	}
	return leader, true
}

// IsUnavailable recognizes the transient replica errors (no quorum,
// leadership lost, replica closed) that a group client retries.
func IsUnavailable(err error) bool {
	return err != nil && strings.Contains(err.Error(), unavailablePrefix)
}

func unavailableErr(why string) error {
	return fmt.Errorf("%s: %s", unavailablePrefix, why)
}

// Replica roles.
const (
	roleFollower = iota
	roleLeader
)

// ReplicaConfig parameterizes one group member.
type ReplicaConfig struct {
	// Index is this replica's position in Peers; Peers lists every
	// replica address of the group, leader included.
	Index int
	Peers []string
	// Pool carries the replication RPCs to peers.
	Pool *rpc.Pool
	// Heartbeat is the leader's idle append interval (default 100ms).
	Heartbeat time.Duration
	// ElectionTimeout is the base silence a follower tolerates before
	// campaigning; replica i waits ElectionTimeout*(1+distance) where
	// distance is its ring distance from the dead leader, so handoff is
	// deterministic (default 10*Heartbeat).
	ElectionTimeout time.Duration
	// MaxLogRecords caps the in-memory publish log; beyond it the
	// prefix is dropped and lagging followers catch up by checkpoint
	// snapshot instead (default 4096).
	MaxLogRecords int
	// Rejoin marks a replica that is restarting into an existing group:
	// it boots as a follower even at Index 0, because the deterministic
	// term-0 leadership only belongs to a cold-booting group — a
	// restarted replica 0 claiming it could serve empty state to clients
	// until the live leader's first message deposed it. Invalid with a
	// single peer: there is no incumbent to follow, so the replica would
	// never lead (a lone replica restarts empty, as a cold boot).
	Rejoin bool
	// Manager configures the wrapped Manager. Replicate is overwritten.
	Manager Config
	// Logf, if set, receives handoff/resync events.
	Logf func(format string, args ...any)
	// Tracer, if set, records cluster events (elections, term
	// changes, truncation, snapshot installs) for the monitor plane.
	Tracer *trace.Tracer
}

func (c *ReplicaConfig) defaults() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 10 * c.Heartbeat
	}
	if c.MaxLogRecords <= 0 {
		c.MaxLogRecords = 4096
	}
}

// Replica is one member of the version plane's replica group.
type Replica struct {
	cfg ReplicaConfig

	mu       sync.Mutex
	mgr      *Manager
	log      []LogRecord // records (logBase, logBase+len]
	logBase  uint64      // highest truncated-away sequence number
	term     uint64
	role     int
	leader   int // believed leader index this term
	lastBeat time.Time
	// Leader-side per-peer replication state.
	ackSeq     []uint64 // highest seq each follower confirmed applied
	peerResync []bool   // follower asked for a snapshot
	needResync bool     // our own state diverged; expect a snapshot
	ackCh      chan struct{}
	closed     bool

	kick []chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// ErrLoneRejoin rejects ReplicaConfig.Rejoin on a single-replica group.
var ErrLoneRejoin = errors.New("vmanager: Rejoin on a single-replica group: no incumbent to follow, the replica would never lead")

// NewReplica builds and starts a group member. Replica 0 boots as
// leader of term 0 (the deterministic initial assignment); everyone
// else, and any Rejoin replica, boots follower.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	cfg.defaults()
	if cfg.Index < 0 || cfg.Index >= len(cfg.Peers) {
		return nil, fmt.Errorf("vmanager: replica index %d out of range for %d peers", cfg.Index, len(cfg.Peers))
	}
	if cfg.Rejoin && len(cfg.Peers) == 1 {
		return nil, ErrLoneRejoin
	}
	r := &Replica{
		cfg:        cfg,
		role:       roleFollower,
		leader:     0,
		lastBeat:   time.Now(),
		ackSeq:     make([]uint64, len(cfg.Peers)),
		peerResync: make([]bool, len(cfg.Peers)),
		ackCh:      make(chan struct{}),
		stop:       make(chan struct{}),
	}
	mcfg := cfg.Manager
	mcfg.Replicate = r.replicate
	r.mgr = New(mcfg)
	if cfg.Index == 0 && !cfg.Rejoin {
		r.role = roleLeader
	} else {
		r.mgr.SetPassive(true)
	}
	r.kick = make([]chan struct{}, len(cfg.Peers))
	for j := range cfg.Peers {
		if j == cfg.Index {
			continue
		}
		r.kick[j] = make(chan struct{}, 1)
		r.wg.Add(1)
		go r.sender(j)
	}
	if len(cfg.Peers) > 1 {
		r.wg.Add(1)
		go r.electionLoop()
	}
	return r, nil
}

// Close stops replication and the wrapped manager.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	r.broadcastLocked()
	mgr := r.mgr
	r.mu.Unlock()
	r.wg.Wait()
	mgr.Close()
}

// Manager returns the wrapped manager (a snapshot install replaces it).
func (r *Replica) Manager() *Manager {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mgr
}

// ReplicaStatus is a replica's self-description (MVmStatus).
type ReplicaStatus struct {
	Index    int
	Term     uint64
	IsLeader bool
	Leader   int
	LogLen   uint64 // logBase + len(log): total records applied
	LogBase  uint64
	Blobs    uint64
}

// Status reports the replica's current role and log position.
func (r *Replica) Status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaStatus{
		Index:    r.cfg.Index,
		Term:     r.term,
		IsLeader: r.role == roleLeader,
		Leader:   r.leader,
		LogLen:   r.logLenLocked(),
		LogBase:  r.logBase,
		Blobs:    uint64(len(r.mgr.Blobs())),
	}
}

func (r *Replica) logLenLocked() uint64 { return r.logBase + uint64(len(r.log)) }

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf("vmanager r%d: "+format, append([]any{r.cfg.Index}, args...)...)
	}
}

// emit records a cluster event prefixed with this replica's identity.
// Safe when no tracer is configured.
func (r *Replica) emit(sev trace.Severity, typ trace.Type, val int64, format string, args ...any) {
	r.cfg.Tracer.Emit(sev, typ, val, "r%d: "+format, append([]any{r.cfg.Index}, args...)...)
}

// leaderLocked gates a client call on this replica being the live
// leader.
func (r *Replica) leaderLocked() error {
	if r.role != roleLeader {
		hint := r.leader
		if hint == r.cfg.Index {
			// A rejoined replica believes "itself" until it hears from
			// the incumbent; don't send clients in a circle.
			hint = -1
		}
		return NotLeaderError(hint)
	}
	return nil
}

// broadcastLocked wakes every quorum waiter.
func (r *Replica) broadcastLocked() {
	close(r.ackCh)
	r.ackCh = make(chan struct{})
}

// appendLocked assigns the next sequence number, appends the record,
// truncates the log if oversized and kicks the senders. Caller holds
// r.mu and has already applied the record to the manager.
func (r *Replica) appendLocked(rec LogRecord) {
	rec.Seq = r.logLenLocked() + 1
	r.log = append(r.log, rec)
	r.truncateLocked()
	for j, ch := range r.kick {
		if j == r.cfg.Index || ch == nil {
			continue
		}
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// truncateLocked bounds the in-memory log: beyond MaxLogRecords the
// older half is dropped, and any follower that still needed it is
// resynced with a full state snapshot (checkpoint.go) instead.
func (r *Replica) truncateLocked() {
	if len(r.log) <= r.cfg.MaxLogRecords {
		return
	}
	drop := len(r.log) - r.cfg.MaxLogRecords/2
	r.logBase += uint64(drop)
	r.log = append([]LogRecord(nil), r.log[drop:]...)
	r.emit(trace.SevInfo, trace.LogTruncate, int64(drop),
		"dropped %d publish-log records (base now %d)", drop, r.logBase)
}

// stepDownLocked demotes a leader (or re-aims a follower) to follow
// leaderIdx at term. A deposed leader may hold un-acked divergent
// records, so it always asks for a snapshot resync.
func (r *Replica) stepDownLocked(term uint64, leaderIdx int) {
	wasLeader := r.role == roleLeader
	termChanged := term != r.term
	r.term = term
	r.role = roleFollower
	r.leader = leaderIdx
	r.lastBeat = time.Now()
	if wasLeader {
		r.needResync = true
		r.mgr.SetPassive(true)
		r.logf("stepping down to follower of r%d at term %d (resync pending)", leaderIdx, term)
		r.emit(trace.SevWarn, trace.ElectionLost, int64(term),
			"deposed; following r%d at term %d", leaderIdx, term)
	} else if termChanged {
		r.emit(trace.SevInfo, trace.TermChange, int64(term),
			"adopted term %d under leader r%d", term, leaderIdx)
	}
	r.broadcastLocked()
}

// waitQuorum blocks until ceil(n/2) of the group's followers have
// acknowledged seq (i.e. a majority of replicas, leader included, hold
// the record), the replica loses leadership, or time runs out.
func (r *Replica) waitQuorum(ctx context.Context, term, seq uint64) error {
	need := len(r.cfg.Peers) / 2 // follower acks; self is the +1
	if need == 0 {
		return nil
	}
	// A mutation waits two election timeouts for its follower acks.
	timer := time.NewTimer(2 * r.cfg.ElectionTimeout)
	defer timer.Stop()
	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return unavailableErr("replica closed")
		}
		if r.term != term || r.role != roleLeader {
			r.mu.Unlock()
			return unavailableErr("leadership lost during replication")
		}
		got := 0
		for j, ack := range r.ackSeq {
			if j != r.cfg.Index && ack >= seq {
				got++
			}
		}
		if got >= need {
			r.mu.Unlock()
			return nil
		}
		ch := r.ackCh
		r.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			return unavailableErr(fmt.Sprintf("no follower quorum for seq %d", seq))
		case <-r.stop:
			return unavailableErr("replica closed")
		}
		r.mu.Lock()
	}
}

// propose is the one way a leader changes the version plane. Under r.mu
// it fills in the record's leader-chosen fields from the applied state,
// applies the record through the entry point followers replay it with,
// and appends it only if it changed state (a duplicate commit or abort
// is a no-op); then it waits until a follower quorum holds the log up to
// there. Every mutation is applied and appended in one r.mu section, so
// that log position covers everything the reply reflects.
func (r *Replica) propose(ctx context.Context, rec LogRecord, isAppend bool) (applied, error) {
	r.mu.Lock()
	if err := r.leaderLocked(); err != nil {
		r.mu.Unlock()
		return applied{}, err
	}
	r.mgr.resolve(&rec, isAppend)
	res, err := r.mgr.apply(rec)
	if err != nil {
		r.mu.Unlock()
		return applied{}, err
	}
	if res.changed {
		r.appendLocked(rec)
	}
	term, seq := r.term, r.logLenLocked()
	r.mu.Unlock()
	return res, r.waitQuorum(ctx, term, seq)
}

// replicate is the Manager's Config.Replicate hook: the repair path's
// abort mark and repaired publish are proposals like any other.
func (r *Replica) replicate(rec LogRecord) error {
	_, err := r.propose(context.Background(), rec, false)
	return err
}

// leading returns the manager and term of a live leader, or the error a
// client call to anything else gets.
func (r *Replica) leading() (*Manager, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.leaderLocked(); err != nil {
		return nil, 0, err
	}
	return r.mgr, r.term, nil
}

// ackBarrier returns once a follower quorum holds every record applied
// so far, provided the replica still leads at term: an answer computed
// before the call reflects no state a leader crash could take back.
func (r *Replica) ackBarrier(ctx context.Context, term uint64) error {
	r.mu.Lock()
	seq := r.logLenLocked()
	r.mu.Unlock()
	return r.waitQuorum(ctx, term, seq)
}

// --- Client-facing mutations (leader only) ---

// CreateBlob allocates a blob under the next free id.
func (r *Replica) CreateBlob(ctx context.Context, pageSize, capacityBytes uint64, red erasure.Redundancy) (uint64, error) {
	res, err := r.propose(ctx, LogRecord{
		Op: OpCreate, PageSize: pageSize, Capacity: capacityBytes,
		K: uint8(red.K), M: uint8(red.M),
	}, false)
	return res.blob, err
}

// AssignVersion serializes a write; for an append the offset resolves to
// the blob's current logical end.
func (r *Replica) AssignVersion(ctx context.Context, blob, writeID, offset, length uint64, isAppend bool) (Assignment, error) {
	res, err := r.propose(ctx, LogRecord{
		Op: OpAssign, Blob: blob, WriteID: writeID, Offset: offset, Length: length,
	}, isAppend)
	return res.a, err
}

// Commit marks a version committed, returning the latest published
// version. The commit is quorum-acked before the call returns (and
// before the blocking wait, so an acked commit survives leader death).
// With block it then waits until v is published — all earlier versions
// committed too — and for the quorum to hold what that answer saw, so a
// returned WRITE is immediately readable.
func (r *Replica) Commit(ctx context.Context, blob uint64, v meta.Version, block bool) (meta.Version, error) {
	res, err := r.propose(ctx, LogRecord{Op: OpCommit, Blob: blob, Version: v}, false)
	if err != nil || !block {
		return res.pub, err
	}
	mgr, term, err := r.leading()
	if err != nil {
		return 0, err
	}
	pub, err := mgr.WaitPublished(ctx, blob, v)
	if err != nil {
		return 0, err
	}
	return pub, r.ackBarrier(ctx, term)
}

// Abort withdraws a version. The abort mark is quorum-acked first; the
// repair fill then runs on a background context so a slow metadata
// store cannot wedge the client (and a leader crash mid-fill leaves an
// orphan the next leader repairs — see RepairOrphans). With repair off
// the caller must itself have stored valid metadata for the version (or
// accept that readers of later versions may fail).
func (r *Replica) Abort(ctx context.Context, blob uint64, v meta.Version) error {
	if _, err := r.propose(ctx, LogRecord{Op: OpAbort, Blob: blob, Version: v}, false); err != nil {
		return err
	}
	mgr := r.Manager()
	if mgr.cfg.RepairTimeout > 0 {
		rctx, cancel := context.WithTimeout(context.Background(), 4*mgr.cfg.RepairTimeout)
		defer cancel()
		return mgr.repairVersion(rctx, blob, v)
	}
	return nil
}

// --- RPC wiring ---

// RegisterHandlers wires both the client-facing vmanager methods and
// the group's replication protocol onto srv.
func (r *Replica) RegisterHandlers(srv *rpc.Server) {
	srv.Handle(MCreate, r.handleCreate)
	srv.Handle(MInfo, r.readHandler((*Manager).handleInfo))
	srv.Handle(MAssign, r.handleAssign)
	srv.Handle(MCommit, r.handleCommit)
	srv.Handle(MAbort, r.handleAbort)
	srv.Handle(MLatest, r.readHandler((*Manager).handleLatest))
	srv.Handle(MVersionInfo, r.readHandler((*Manager).handleVersionInfo))
	srv.Handle(MHistory, r.readHandler((*Manager).handleHistory))
	srv.Handle(MBlobs, r.readHandler((*Manager).handleBlobs))
	srv.Handle(MVmAppend, r.handleVmAppend)
	srv.Handle(MVmStatus, r.handleVmStatus)
	srv.Handle(MVmState, r.handleVmState)
	srv.Handle(MVmInstall, r.handleVmInstall)
}

// readHandler serves a read from the leader's manager — never a stale
// follower's — and replies only once the quorum holds the log position
// the answer reflects, so no reader hears of state a leader crash could
// take back.
func (r *Replica) readHandler(h func(*Manager, context.Context, []byte) ([]byte, error)) rpc.HandlerFunc {
	return func(ctx context.Context, body []byte) ([]byte, error) {
		mgr, term, err := r.leading()
		if err != nil {
			return nil, err
		}
		resp, err := h(mgr, ctx, body)
		if berr := r.ackBarrier(ctx, term); berr != nil {
			return nil, berr
		}
		return resp, err
	}
}

func (r *Replica) handleCreate(ctx context.Context, body []byte) ([]byte, error) {
	rd := wire.NewReader(body)
	pageSize := rd.Uint64()
	capacity := rd.Uint64()
	red := erasure.Redundancy{K: int(rd.Uint8()), M: int(rd.Uint8())}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("vmanager create: %w", err)
	}
	id, err := r.CreateBlob(ctx, pageSize, capacity, red)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(8)
	w.Uint64(id)
	return w.Bytes(), nil
}

func (r *Replica) handleAssign(ctx context.Context, body []byte) ([]byte, error) {
	rd := wire.NewReader(body)
	blob := rd.Uint64()
	writeID := rd.Uint64()
	offset := rd.Uint64()
	length := rd.Uint64()
	isAppend := rd.Bool()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("vmanager assign: %w", err)
	}
	a, err := r.AssignVersion(ctx, blob, writeID, offset, length, isAppend)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(32 + 24*len(a.Borders))
	w.Uint64(a.Version)
	w.Uint64(a.Offset)
	w.Uvarint(uint64(len(a.Borders)))
	for _, b := range a.Borders {
		w.Uvarint(b.Child.Start)
		w.Uvarint(b.Child.Size)
		w.Uvarint(b.Ver)
	}
	return w.Bytes(), nil
}

func (r *Replica) handleCommit(ctx context.Context, body []byte) ([]byte, error) {
	rd := wire.NewReader(body)
	blob := rd.Uint64()
	v := rd.Uint64()
	block := rd.Bool()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("vmanager commit: %w", err)
	}
	pub, err := r.Commit(ctx, blob, v, block)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(8)
	w.Uint64(pub)
	return w.Bytes(), nil
}

func (r *Replica) handleAbort(ctx context.Context, body []byte) ([]byte, error) {
	rd := wire.NewReader(body)
	blob := rd.Uint64()
	v := rd.Uint64()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("vmanager abort: %w", err)
	}
	if err := r.Abort(ctx, blob, v); err != nil {
		return nil, err
	}
	return nil, nil
}

// --- Replication protocol ---

// Append request: term u64, leader u8, prevSeq u64, framed records.
// Install request: term u64, leader u8, seq u64, checkpoint.
// Append/install response: term u64, leader u8, logLen u64, flags u8.
const (
	respResync   = 1 << 0
	respRejected = 1 << 1
)

func encodeAppendResp(term uint64, leader int, logLen uint64, flags uint8) []byte {
	w := wire.NewWriter(18)
	w.Uint64(term)
	w.Uint8(uint8(leader))
	w.Uint64(logLen)
	w.Uint8(flags)
	return w.Bytes()
}

type appendResp struct {
	term   uint64
	leader int
	logLen uint64
	flags  uint8
}

func decodeAppendResp(body []byte) (appendResp, error) {
	rd := wire.NewReader(body)
	resp := appendResp{
		term:   rd.Uint64(),
		leader: int(rd.Uint8()),
		logLen: rd.Uint64(),
		flags:  rd.Uint8(),
	}
	return resp, rd.Err()
}

// decodeReplicationReq parses an append or install request to a group
// of peers replicas. A leader index outside the group makes the request
// malformed: stored as the leader, it would make the election stagger
// negative, so the replica campaigned on every tick, and it would be
// handed to clients as their leader.
func decodeReplicationReq(body []byte, peers int) (term uint64, leader int, seq uint64, rest []byte, err error) {
	rd := wire.NewReader(body)
	term = rd.Uint64()
	leader = int(rd.Uint8())
	seq = rd.Uint64()
	rest = rd.Raw(rd.Remaining())
	if err := rd.Err(); err != nil {
		return 0, 0, 0, nil, err
	}
	if leader >= peers {
		return 0, 0, 0, nil, fmt.Errorf("leader index %d outside a group of %d", leader, peers)
	}
	return term, leader, seq, rest, nil
}

// acceptLeaderLocked runs the term/leader admission shared by append
// and install. It returns a rejection response if the sender is stale,
// or nil if the sender is (now) our leader.
func (r *Replica) acceptLeaderLocked(term uint64, leaderIdx int) []byte {
	switch {
	case term < r.term:
		return encodeAppendResp(r.term, r.leader, r.logLenLocked(), respRejected)
	case term > r.term:
		r.stepDownLocked(term, leaderIdx)
	default: // same term
		if r.role == roleLeader || r.leader != leaderIdx {
			// Two claimants in one term (possible only under extreme
			// timer coincidence): the lowest replica index wins, the
			// loser resyncs.
			if leaderIdx < r.leaderClaimLocked() {
				r.stepDownLocked(term, leaderIdx)
			} else {
				return encodeAppendResp(r.term, r.leaderClaimLocked(), r.logLenLocked(), respRejected)
			}
		}
	}
	r.lastBeat = time.Now()
	return nil
}

// leaderClaimLocked is who we currently believe leads this term —
// ourselves if we are leader.
func (r *Replica) leaderClaimLocked() int {
	if r.role == roleLeader {
		return r.cfg.Index
	}
	return r.leader
}

func (r *Replica) handleVmAppend(_ context.Context, body []byte) ([]byte, error) {
	term, leaderIdx, prevSeq, payload, err := decodeReplicationReq(body, len(r.cfg.Peers))
	if err != nil {
		return nil, fmt.Errorf("vmanager append: %w", err)
	}
	recs, err := DecodeLogRecords(payload)
	if err != nil {
		return nil, fmt.Errorf("vmanager append: %w", err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if rej := r.acceptLeaderLocked(term, leaderIdx); rej != nil {
		return rej, nil
	}
	if r.needResync {
		return encodeAppendResp(r.term, r.leader, r.logLenLocked(), respResync), nil
	}
	if prevSeq > r.logLenLocked() {
		// Gap: we are missing records before this batch. Report our
		// length; the leader backs up (or snapshots us).
		return encodeAppendResp(r.term, r.leader, r.logLenLocked(), 0), nil
	}
	for _, rec := range recs {
		cur := r.logLenLocked()
		if rec.Seq <= cur {
			continue // duplicate delivery
		}
		if rec.Seq != cur+1 {
			break // gap inside batch (cannot happen with a correct leader)
		}
		if err := r.mgr.ApplyRecord(rec); err != nil {
			// Divergence: stop applying and ask for a snapshot.
			r.needResync = true
			r.logf("apply seq %d failed (%v); requesting resync", rec.Seq, err)
			return encodeAppendResp(r.term, r.leader, cur, respResync), nil
		}
		r.log = append(r.log, rec)
		r.truncateLocked()
	}
	return encodeAppendResp(r.term, r.leader, r.logLenLocked(), 0), nil
}

func (r *Replica) handleVmStatus(_ context.Context, _ []byte) ([]byte, error) {
	st := r.Status()
	w := wire.NewWriter(64)
	w.Uint32(uint32(st.Index))
	w.Uint64(st.Term)
	w.Bool(st.IsLeader)
	w.Uint32(uint32(st.Leader))
	w.Uint64(st.LogLen)
	w.Uint64(st.LogBase)
	w.Uint64(st.Blobs)
	return w.Bytes(), nil
}

// DecodeReplicaStatus parses an MVmStatus response.
func DecodeReplicaStatus(body []byte) (ReplicaStatus, error) {
	rd := wire.NewReader(body)
	st := ReplicaStatus{
		Index:    int(rd.Uint32()),
		Term:     rd.Uint64(),
		IsLeader: rd.Bool(),
		Leader:   int(rd.Uint32()),
		LogLen:   rd.Uint64(),
		LogBase:  rd.Uint64(),
		Blobs:    rd.Uint64(),
	}
	return st, rd.Err()
}

// handleVmState serves the full-state snapshot: term u64, logLen u64,
// checkpoint stream. Candidates pull it to adopt the freshest state;
// leaders push it (as MVmInstall) to lagging followers.
func (r *Replica) handleVmState(_ context.Context, _ []byte) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ckpt := r.mgr.Checkpoint()
	w := wire.NewWriter(16 + len(ckpt))
	w.Uint64(r.term)
	w.Uint64(r.logLenLocked())
	w.Raw(ckpt)
	return w.Bytes(), nil
}

func (r *Replica) handleVmInstall(_ context.Context, body []byte) ([]byte, error) {
	term, leaderIdx, seq, ckpt, err := decodeReplicationReq(body, len(r.cfg.Peers))
	if err != nil {
		return nil, fmt.Errorf("vmanager install: %w", err)
	}

	r.mu.Lock()
	if rej := r.acceptLeaderLocked(term, leaderIdx); rej != nil {
		r.mu.Unlock()
		return rej, nil
	}
	if err := r.installLocked(seq, ckpt); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	resp := encodeAppendResp(r.term, r.leader, r.logLenLocked(), 0)
	r.mu.Unlock()
	return resp, nil
}

// installLocked replaces the local manager with a restored snapshot at
// log position seq. The old manager is closed asynchronously (Close
// joins its repair loop, which may be lock-ordered behind us).
func (r *Replica) installLocked(seq uint64, ckpt []byte) error {
	mcfg := r.cfg.Manager
	mcfg.Replicate = r.replicate
	mgr, err := Restore(ckpt, mcfg)
	if err != nil {
		return fmt.Errorf("vmanager install: %w", err)
	}
	if r.role != roleLeader {
		mgr.SetPassive(true)
	}
	old := r.mgr
	r.mgr = mgr
	r.log = nil
	r.logBase = seq
	r.needResync = false
	r.logf("installed snapshot at seq %d", seq)
	r.emit(trace.SevInfo, trace.SnapshotInstall, int64(seq),
		"installed leader snapshot at seq %d", seq)
	go old.Close()
	return nil
}

// --- Leader-side replication senders ---

// sender keeps one follower in sync: batched log appends when the
// follower is within the log window, a checkpoint snapshot when it fell
// behind the truncation horizon or asked to resync, and heartbeats
// (empty appends) when idle.
func (r *Replica) sender(peer int) {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		case <-r.kick[peer]:
		}
		// Drain until the follower is caught up (or we stop leading).
		for r.syncPeer(peer) {
		}
	}
}

// syncPeer makes one replication RPC to the follower; it reports
// whether more records remain to push.
func (r *Replica) syncPeer(peer int) bool {
	r.mu.Lock()
	if r.closed || r.role != roleLeader {
		r.mu.Unlock()
		return false
	}
	term := r.term
	method := uint32(MVmAppend)
	var body []byte
	fLen := r.ackSeq[peer]
	switch {
	case r.peerResync[peer] || fLen < r.logBase:
		// Beyond the log window: push the whole state.
		ckpt := r.mgr.Checkpoint()
		method = MVmInstall
		w := wire.NewWriter(24 + len(ckpt))
		w.Uint64(term)
		w.Uint8(uint8(r.cfg.Index))
		w.Uint64(r.logLenLocked())
		w.Raw(ckpt)
		body = w.Bytes()
	default:
		batch := r.log[fLen-r.logBase:]
		const maxBatch = 256
		if len(batch) > maxBatch {
			batch = batch[:maxBatch]
		}
		w := wire.NewWriter(24 + 64*len(batch))
		w.Uint64(term)
		w.Uint8(uint8(r.cfg.Index))
		w.Uint64(fLen)
		w.Raw(EncodeLogRecords(batch))
		body = w.Bytes()
	}
	addr := r.cfg.Peers[peer]
	r.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 4*r.cfg.Heartbeat)
	respBody, err := r.cfg.Pool.Call(ctx, addr, method, body)
	cancel()
	if err != nil {
		return false // dead or partitioned peer; heartbeat retries
	}
	resp, err := decodeAppendResp(respBody)
	if err != nil || resp.leader >= len(r.cfg.Peers) {
		return false // a reply naming a leader outside the group is malformed
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.term != term || r.role != roleLeader {
		return false
	}
	if resp.flags&respRejected != 0 {
		if resp.term > r.term {
			r.stepDownLocked(resp.term, resp.leader)
		} else if resp.term == r.term && resp.leader < r.cfg.Index {
			// Same-term claimant with a lower index wins the tie.
			r.stepDownLocked(resp.term, resp.leader)
		}
		return false
	}
	r.peerResync[peer] = resp.flags&respResync != 0
	if resp.logLen > r.logLenLocked() {
		// The follower holds a log tail we never saw: un-acked records
		// a dead leader appended locally, on a replica our campaign did
		// not reach (acked records always survive into the new leader —
		// the campaign and ack quorums intersect). Overwrite it with a
		// snapshot rather than letting a bogus ackSeq satisfy quorums.
		r.peerResync[peer] = true
		r.ackSeq[peer] = 0
		return true
	}
	if resp.logLen > r.ackSeq[peer] || method == MVmInstall {
		r.ackSeq[peer] = resp.logLen
		r.broadcastLocked()
	} else if resp.logLen < r.ackSeq[peer] {
		// Follower went backwards (restarted empty): resend from its
		// actual position.
		r.ackSeq[peer] = resp.logLen
	}
	return !r.peerResync[peer] && r.ackSeq[peer] < r.logLenLocked()
}

// --- Elections ---

// electionLoop watches for leader silence. The wait is staggered by
// ring distance from the dead leader — the next replica in index order
// fires a full ElectionTimeout before the one after it — making
// handoff deterministic when timers are respected, while the campaign
// quorum keeps it safe when they are not.
func (r *Replica) electionLoop() {
	defer r.wg.Done()
	tick := r.cfg.ElectionTimeout / 8
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		r.mu.Lock()
		if r.closed || r.role == roleLeader {
			r.mu.Unlock()
			continue
		}
		n := len(r.cfg.Peers)
		distance := (r.cfg.Index - r.leader - 1 + n) % n
		wait := r.cfg.ElectionTimeout * time.Duration(1+distance)
		if time.Since(r.lastBeat) < wait {
			r.mu.Unlock()
			continue
		}
		startTerm := r.term
		r.mu.Unlock()
		r.campaign(startTerm)
	}
}

// campaign polls the group for the freshest state and promotes this
// replica if it can reach a quorum and no live leader objects. The
// candidate adopts the highest (term, logLen) state it sees before
// promoting at maxTerm+1, so every quorum-acked record survives the
// handoff: the ack quorum and the campaign quorum always intersect.
func (r *Replica) campaign(startTerm uint64) {
	n := len(r.cfg.Peers)
	reached := 1 // self
	maxTerm := startTerm
	bestTerm, bestLen := startTerm, uint64(0)
	r.mu.Lock()
	bestLen = r.logLenLocked()
	r.mu.Unlock()
	bestPeer := -1

	for j, addr := range r.cfg.Peers {
		if j == r.cfg.Index {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 4*r.cfg.Heartbeat)
		respBody, err := r.cfg.Pool.Call(ctx, addr, MVmStatus, nil)
		cancel()
		if err != nil {
			continue
		}
		st, err := DecodeReplicaStatus(respBody)
		if err != nil {
			continue
		}
		reached++
		if st.Term > maxTerm {
			maxTerm = st.Term
		}
		if st.IsLeader && st.Term >= startTerm {
			// A live leader at our term or newer: follow it.
			r.mu.Lock()
			if r.term <= st.Term {
				r.term = st.Term
				r.role = roleFollower
				r.leader = j // the replica we asked, whatever index it names
				r.lastBeat = time.Now()
			}
			r.mu.Unlock()
			return
		}
		if st.Term > bestTerm || (st.Term == bestTerm && st.LogLen > bestLen) {
			bestTerm, bestLen, bestPeer = st.Term, st.LogLen, j
		}
	}

	// Safety: the campaign set is a majority (n/2+1 replicas, self
	// included), the same count an ack needs, so it intersects every
	// possible ack set; and a candidate cut off from the majority never
	// promotes itself to a leadership it could not use to ack.
	if reached < n/2+1 {
		r.logf("campaign reached %d/%d replicas; not enough for a safe takeover", reached, n)
		return
	}

	// Adopt the freshest state seen, if it beats our own.
	if bestPeer >= 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*r.cfg.Heartbeat)
		respBody, err := r.cfg.Pool.Call(ctx, r.cfg.Peers[bestPeer], MVmState, nil)
		cancel()
		if err != nil {
			return // retry next tick
		}
		rd := wire.NewReader(respBody)
		rd.Uint64() // peer's term, already folded into maxTerm
		seq := rd.Uint64()
		ckpt := rd.Raw(rd.Remaining())
		if err := rd.Err(); err != nil {
			return
		}
		r.mu.Lock()
		if r.term != startTerm || r.role != roleFollower || r.closed {
			r.mu.Unlock()
			return
		}
		if seq >= r.logLenLocked() {
			if err := r.installLocked(seq, ckpt); err != nil {
				r.mu.Unlock()
				return
			}
		}
		r.mu.Unlock()
	}

	r.mu.Lock()
	if r.term != startTerm || r.role != roleFollower || r.closed {
		r.mu.Unlock()
		return
	}
	r.term = maxTerm + 1
	r.role = roleLeader
	r.leader = r.cfg.Index
	r.needResync = false
	for j := range r.ackSeq {
		r.ackSeq[j] = 0
		r.peerResync[j] = false
	}
	mgr := r.mgr
	mgr.SetPassive(false)
	r.broadcastLocked()
	for j, ch := range r.kick {
		if j == r.cfg.Index || ch == nil {
			continue
		}
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	term := r.term
	r.mu.Unlock()
	r.logf("promoted to leader at term %d", term)
	r.emit(trace.SevInfo, trace.ElectionWon, int64(term), "leads at term %d", term)

	// Finish what the dead leader started: fill any version that was
	// abort-marked but never repaired.
	if mgr.cfg.RepairTimeout > 0 {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 4*mgr.cfg.RepairTimeout)
			defer cancel()
			mgr.RepairOrphans(ctx)
		}()
	}
}
