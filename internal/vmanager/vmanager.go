// Package vmanager implements the version manager, "the key actor of the
// system" (paper §III.A). It is the only serialization point: it assigns
// version numbers to writes, precomputes the border-node versions each
// writer needs to weave its partial metadata tree into the forest of
// earlier versions (§IV.C), tracks which versions have committed, and
// publishes versions strictly in order — giving the global
// serializability and liveness properties of §II.
//
// Beyond the paper, the manager implements the fault-tolerance extension
// sketched in its future work: if a writer that was assigned a version
// dies before committing, the manager repairs the hole by materializing
// that version's metadata itself (a logical no-op patch referencing the
// previous content), so publication of later versions is never blocked
// forever. See repair.go.
package vmanager

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/stats"
)

// Errors returned to clients.
var (
	ErrNoBlob         = errors.New("vmanager: unknown blob")
	ErrAborted        = errors.New("vmanager: version aborted")
	ErrNotPending     = errors.New("vmanager: version not pending")
	ErrBadRange       = errors.New("vmanager: invalid range")
	ErrVersionUnknown = errors.New("vmanager: version not yet assigned")
)

// WriteRecord is the durable history entry for one assigned write,
// consumed by the garbage collector and the repair path.
type WriteRecord struct {
	Version meta.Version
	Range   meta.PageRange
	WriteID uint64
	Aborted bool
}

// pendingWrite tracks an assigned, not-yet-published version.
type pendingWrite struct {
	wr        meta.PageRange
	writeID   uint64
	committed bool
	aborted   bool
	deadline  time.Time
	repairing bool
}

// blobState is the manager's record of one blob.
type blobState struct {
	id         uint64
	pageSize   uint64
	totalPages uint64
	// red is the blob's redundancy mode, fixed at ALLOC: zero value =
	// full replication, K>0 = rs(K,M) erasure-coded stripes
	// (docs/erasure.md). Readers, writers and the repair agent all
	// learn it from Info.
	red erasure.Redundancy

	latestAssigned  meta.Version
	latestPublished meta.Version
	// sizes[v] is the logical size in bytes of version v (grows with
	// writes past the end and with appends). sizes[0] == 0.
	sizes []uint64

	ivm     *meta.IntervalVersionMap
	pending map[meta.Version]*pendingWrite
	history []WriteRecord

	// changed is closed and replaced whenever publication state moves,
	// waking blocked Commit calls.
	changed chan struct{}
}

// Assignment is the version manager's reply to a write's version request:
// the version number, the final byte offset (resolved for appends), and
// the precomputed border set with which the writer builds its metadata in
// complete isolation.
type Assignment struct {
	Version meta.Version
	Offset  uint64
	Borders []meta.Border
}

// Config parameterizes a Manager.
type Config struct {
	// RepairTimeout is how long an assigned version may stay uncommitted
	// before the manager repairs it as a no-op patch. Zero disables
	// repair (the paper's baseline behaviour, where a dead writer blocks
	// publication of successors).
	RepairTimeout time.Duration
	// RepairScan is how often the repair loop scans for expired writes
	// (default: RepairTimeout/4).
	RepairScan time.Duration
	// Store gives the repair path access to the metadata providers.
	// Required only when RepairTimeout > 0.
	Store NodeStore
	// Replicate carries the repair path's two mutations (OpAbort: the
	// abort mark, OpRepaired: the final repaired commit). A Replica sets
	// it to apply them and append them to the shard log, so followers
	// see them in log order (see replica.go); left nil, they apply to
	// this Manager alone. Invoked with no Manager locks held.
	Replicate func(op uint8, blob uint64, v meta.Version) error
}

// NodeStore is the slice of the metadata-provider interface the repair
// path needs. internal/mstore.Client satisfies it.
type NodeStore interface {
	FetchNode(ctx context.Context, key meta.NodeKey) (*meta.Node, error)
	StoreNodes(ctx context.Context, nodes []meta.Node) error
}

// Manager is the version manager service state.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	blobs  map[uint64]*blobState
	nextID uint64

	// Metrics.
	Assigns   stats.Counter
	Commits   stats.Counter
	Publishes stats.Counter
	Aborts    stats.Counter
	Repairs   stats.Counter

	// passive suppresses autonomous repair activity. A replicated
	// shard's followers run passive: they apply the leader's log and
	// must not race it with repairs of their own (replica.go flips this
	// on promotion/demotion).
	passive atomic.Bool

	stopRepair chan struct{}
	repairWG   sync.WaitGroup
	closed     bool
}

// SetPassive switches autonomous repair scanning off (true) or on
// (false). State mutations via ApplyRecord are unaffected.
func (m *Manager) SetPassive(p bool) { m.passive.Store(p) }

// New creates a Manager and starts its repair loop if configured.
func New(cfg Config) *Manager {
	if cfg.RepairScan <= 0 {
		cfg.RepairScan = cfg.RepairTimeout / 4
	}
	m := &Manager{
		blobs:      make(map[uint64]*blobState),
		nextID:     1,
		stopRepair: make(chan struct{}),
	}
	if cfg.Replicate == nil {
		cfg.Replicate = m.applyRepairOp
	}
	m.cfg = cfg
	if cfg.RepairTimeout > 0 {
		if cfg.Store == nil {
			panic("vmanager: RepairTimeout set without a NodeStore")
		}
		m.repairWG.Add(1)
		go m.repairLoop()
	}
	return m
}

// Close stops background work.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stopRepair)
	m.repairWG.Wait()
}

// CreateBlob allocates a new blob (the paper's ALLOC primitive): a
// globally unique id for a string of capacityBytes bytes in pageSize
// pages, with the redundancy mode fixed for the blob's lifetime (the mode
// shapes every write's metadata, so it cannot change once pages exist).
// capacityBytes/pageSize must be a power of two. The id satisfies owns —
// a shard of the group only hands out ids that the dht ring places on
// that shard, so every client routes the blob back here (see group.go).
// A nil owns accepts any id.
func (m *Manager) CreateBlob(pageSize, capacityBytes uint64, red erasure.Redundancy, owns func(uint64) bool) (uint64, error) {
	if err := validateGeometry(pageSize, capacityBytes, red); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextID
	for owns != nil && !owns(id) {
		id++
	}
	if err := m.createBlobAtLocked(id, pageSize, capacityBytes, red); err != nil {
		return 0, err
	}
	return id, nil
}

func validateGeometry(pageSize, capacityBytes uint64, red erasure.Redundancy) error {
	if err := red.Validate(); err != nil {
		return err
	}
	if !meta.IsPowerOfTwo(pageSize) {
		return fmt.Errorf("vmanager: page size %d not a power of two", pageSize)
	}
	if capacityBytes == 0 || capacityBytes%pageSize != 0 {
		return fmt.Errorf("vmanager: capacity %d not a multiple of page size %d", capacityBytes, pageSize)
	}
	return nil
}

// createBlobAtLocked creates a blob with a caller-chosen id (log replay
// uses the leader's id). Idempotent for an identical existing blob.
func (m *Manager) createBlobAtLocked(id, pageSize, capacityBytes uint64, red erasure.Redundancy) error {
	totalPages := capacityBytes / pageSize
	if prev, ok := m.blobs[id]; ok {
		if prev.pageSize == pageSize && prev.totalPages == totalPages && prev.red == red {
			return nil
		}
		return fmt.Errorf("vmanager: blob %d already exists with different geometry", id)
	}
	ivm, err := meta.NewIntervalVersionMap(totalPages)
	if err != nil {
		return fmt.Errorf("vmanager: %w", err)
	}
	m.blobs[id] = &blobState{
		id:         id,
		pageSize:   pageSize,
		totalPages: totalPages,
		red:        red,
		sizes:      []uint64{0},
		ivm:        ivm,
		pending:    make(map[meta.Version]*pendingWrite),
		changed:    make(chan struct{}),
	}
	if id >= m.nextID {
		m.nextID = id + 1
	}
	return nil
}

// BlobInfo describes a blob's static geometry and current published state.
type BlobInfo struct {
	ID              uint64
	PageSize        uint64
	TotalPages      uint64
	LatestPublished meta.Version
	SizeBytes       uint64
	// Redundancy is the blob's fixed redundancy mode (zero = replication).
	Redundancy erasure.Redundancy
}

// Info returns a blob's current info.
func (m *Manager) Info(blob uint64) (BlobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[blob]
	if !ok {
		return BlobInfo{}, ErrNoBlob
	}
	return BlobInfo{
		ID:              b.id,
		PageSize:        b.pageSize,
		TotalPages:      b.totalPages,
		LatestPublished: b.latestPublished,
		SizeBytes:       b.sizes[b.latestPublished],
		Redundancy:      b.red,
	}, nil
}

// AssignVersion serializes a write into the version order. For appends
// the offset is resolved to the current logical end of the blob. The
// returned border set reflects exactly the writes numbered below the new
// version, whether or not they have published — the mechanism that lets
// concurrent writers proceed without synchronizing with each other.
func (m *Manager) AssignVersion(blob, writeID uint64, offset, length uint64, isAppend bool) (Assignment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[blob]
	if !ok {
		return Assignment{}, ErrNoBlob
	}
	if isAppend {
		offset = b.sizes[b.latestAssigned]
	}
	if offset%b.pageSize != 0 || length == 0 || length%b.pageSize != 0 {
		return Assignment{}, fmt.Errorf("%w: offset %d length %d not aligned to page size %d",
			ErrBadRange, offset, length, b.pageSize)
	}
	wr := meta.PageRange{First: offset / b.pageSize, Count: length / b.pageSize}
	if wr.End() > b.totalPages {
		return Assignment{}, fmt.Errorf("%w: write [%d,%d) exceeds capacity of %d pages",
			ErrBadRange, wr.First, wr.End(), b.totalPages)
	}

	v := b.latestAssigned + 1
	borders := meta.Borders(b.totalPages, wr)
	b.ivm.ResolveBorders(borders) // before Assign: sees versions 1..v-1
	b.ivm.Assign(wr, v)
	b.latestAssigned = v

	// Track the logical size of this version.
	newSize := b.sizes[v-1]
	if end := offset + length; end > newSize {
		newSize = end
	}
	b.sizes = append(b.sizes, newSize)

	var deadline time.Time
	if m.cfg.RepairTimeout > 0 {
		deadline = time.Now().Add(m.cfg.RepairTimeout)
	}
	b.pending[v] = &pendingWrite{
		wr: wr, writeID: writeID, deadline: deadline,
	}
	b.history = append(b.history, WriteRecord{Version: v, Range: wr, WriteID: writeID})
	m.Assigns.Inc()
	return Assignment{Version: v, Offset: offset, Borders: borders}, nil
}

// Commit reports that the writer of (blob, v) finished storing data and
// metadata. If block is true, Commit waits until v is actually published
// (all earlier versions committed too) or ctx expires, so a returned
// WRITE is immediately readable.
func (m *Manager) Commit(ctx context.Context, blob uint64, v meta.Version, block bool) (meta.Version, error) {
	pub, _, err := m.commitObserve(blob, v)
	if err != nil || !block {
		return pub, err
	}
	return m.WaitPublished(ctx, blob, v)
}

// commitObserve is the non-blocking half of Commit. transitioned
// reports whether this call actually flipped the version to committed —
// a replicated shard leader appends a log record exactly when it did
// (duplicate commits and the already-published path mutate nothing).
func (m *Manager) commitObserve(blob uint64, v meta.Version) (pub meta.Version, transitioned bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[blob]
	if !ok {
		return 0, false, ErrNoBlob
	}
	p, ok := b.pending[v]
	switch {
	case ok && p.aborted:
		return 0, false, fmt.Errorf("%w: version %d", ErrAborted, v)
	case !ok:
		if v <= b.latestPublished {
			// Already published: the repair path may have completed the
			// version on the writer's behalf. Check the abort flag.
			if historyAborted(b.history, v) {
				return 0, false, fmt.Errorf("%w: version %d", ErrAborted, v)
			}
			return b.latestPublished, false, nil
		}
		return 0, false, fmt.Errorf("%w: version %d", ErrNotPending, v)
	}
	if !p.committed {
		p.committed = true
		transitioned = true
		m.Commits.Inc()
		m.advanceLocked(b)
	}
	return b.latestPublished, transitioned, nil
}

// WaitPublished blocks until version v of blob is published (or ctx
// expires), returning the latest published version. A version that
// aborts while waited on returns ErrAborted.
func (m *Manager) WaitPublished(ctx context.Context, blob uint64, v meta.Version) (meta.Version, error) {
	m.mu.Lock()
	for {
		b, ok := m.blobs[blob]
		if !ok {
			m.mu.Unlock()
			return 0, ErrNoBlob
		}
		if b.latestPublished >= v {
			if historyAborted(b.history, v) {
				m.mu.Unlock()
				return 0, fmt.Errorf("%w: version %d", ErrAborted, v)
			}
			pub := b.latestPublished
			m.mu.Unlock()
			return pub, nil
		}
		if p, ok := b.pending[v]; ok && p.aborted {
			m.mu.Unlock()
			return 0, fmt.Errorf("%w: version %d", ErrAborted, v)
		}
		ch := b.changed
		m.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		m.mu.Lock()
	}
}

// historyAborted reports whether version v is flagged aborted in the
// write history.
func historyAborted(history []WriteRecord, v meta.Version) bool {
	for i := len(history) - 1; i >= 0; i-- {
		if history[i].Version == v {
			return history[i].Aborted
		}
	}
	return false
}

// advanceLocked publishes the longest committed prefix.
func (m *Manager) advanceLocked(b *blobState) {
	moved := false
	for {
		next := b.latestPublished + 1
		p, ok := b.pending[next]
		if !ok || !p.committed {
			break
		}
		delete(b.pending, next)
		b.latestPublished = next
		m.Publishes.Inc()
		moved = true
	}
	if moved {
		close(b.changed)
		b.changed = make(chan struct{})
	}
}

// Abort withdraws an assigned version (the writer knows it failed). The
// version is immediately repaired as a no-op patch if repair is enabled;
// otherwise it is marked committed-as-aborted so publication can proceed
// once its metadata exists. Abort with repair disabled requires that the
// caller has itself stored valid metadata for the version (or accepts
// that readers of later versions may fail).
func (m *Manager) Abort(blob uint64, v meta.Version) error {
	if _, err := m.markAborted(blob, v); err != nil {
		return err
	}
	if m.cfg.RepairTimeout > 0 {
		return m.repairVersion(context.Background(), blob, v)
	}
	return nil
}

// markAborted flags a pending version aborted and wakes blocked
// commits, without triggering repair. Idempotent (changed reports
// whether this call made the transition); a version that is no longer
// pending but already flagged in history (replayed abort) is accepted.
func (m *Manager) markAborted(blob uint64, v meta.Version) (changed bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[blob]
	if !ok {
		return false, ErrNoBlob
	}
	p, ok := b.pending[v]
	if !ok {
		if historyAborted(b.history, v) {
			return false, nil
		}
		return false, fmt.Errorf("%w: version %d", ErrNotPending, v)
	}
	if p.aborted {
		return false, nil
	}
	p.aborted = true
	for i := len(b.history) - 1; i >= 0; i-- {
		if b.history[i].Version == v {
			b.history[i].Aborted = true
			break
		}
	}
	m.Aborts.Inc()
	// Wake any blocked Commit for this version.
	close(b.changed)
	b.changed = make(chan struct{})
	return true, nil
}

// applyRepairOp applies one of the repair path's two mutations to this
// manager's state.
func (m *Manager) applyRepairOp(op uint8, blob uint64, v meta.Version) error {
	switch op {
	case OpAbort:
		_, err := m.markAborted(blob, v)
		return err
	case OpRepaired:
		return m.applyRepaired(blob, v)
	default:
		return fmt.Errorf("vmanager: repair: unexpected op %d", op)
	}
}

// applyRepaired is the second half of the repair path as a log-replay
// mutation: the version's metadata exists (the leader stored it), so
// flag it aborted-and-committed and advance publication. Idempotent.
func (m *Manager) applyRepaired(blob uint64, v meta.Version) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[blob]
	if !ok {
		return ErrNoBlob
	}
	for i := len(b.history) - 1; i >= 0; i-- {
		if b.history[i].Version == v {
			b.history[i].Aborted = true
			break
		}
	}
	p, ok := b.pending[v]
	if !ok {
		return nil // already published
	}
	p.aborted = true
	if !p.committed {
		p.committed = true
		m.Repairs.Inc()
		m.advanceLocked(b)
	}
	return nil
}

// ApplyRecord applies one replicated log record to the manager's state —
// the follower half of the shard replication protocol. Records must be
// applied in log order; any divergence from the leader's expectations
// (version mismatch, unknown blob) is returned as an error, signalling
// the replica layer to resynchronize from a snapshot rather than limp
// on with drifted state.
func (m *Manager) ApplyRecord(rec LogRecord) error {
	switch rec.Op {
	case OpCreate:
		red := erasure.Redundancy{K: int(rec.K), M: int(rec.M)}
		if err := validateGeometry(rec.PageSize, rec.Capacity, red); err != nil {
			return err
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.createBlobAtLocked(rec.Blob, rec.PageSize, rec.Capacity, red)
	case OpAssign:
		return m.applyAssign(rec)
	case OpCommit:
		_, _, err := m.commitObserve(rec.Blob, rec.Version)
		if errors.Is(err, ErrAborted) {
			// The leader committed this version before aborting it in a
			// later record we have not applied yet; our abort state can
			// only come from the same log, so this cannot happen in
			// order — but a duplicate delivery after the abort can.
			return nil
		}
		return err
	case OpAbort, OpRepaired:
		return m.applyRepairOp(rec.Op, rec.Blob, rec.Version)
	default:
		return fmt.Errorf("%w: unknown op %d", ErrLogCorrupt, rec.Op)
	}
}

// applyAssign re-executes an assignment deterministically: the offset
// was append-resolved by the leader, so the assigned version must come
// out identical; if it does not, the replica has diverged.
func (m *Manager) applyAssign(rec LogRecord) error {
	a, err := m.AssignVersion(rec.Blob, rec.WriteID, rec.Offset, rec.Length, false)
	if err != nil {
		return err
	}
	if a.Version != rec.Version {
		return fmt.Errorf("vmanager: replay diverged: assigned v%d, log says v%d (blob %d)",
			a.Version, rec.Version, rec.Blob)
	}
	return nil
}

// Latest returns the newest published version and its size.
func (m *Manager) Latest(blob uint64) (meta.Version, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[blob]
	if !ok {
		return 0, 0, ErrNoBlob
	}
	return b.latestPublished, b.sizes[b.latestPublished], nil
}

// VersionInfo reports whether v is published and its logical size.
func (m *Manager) VersionInfo(blob uint64, v meta.Version) (published bool, size uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[blob]
	if !ok {
		return false, 0, ErrNoBlob
	}
	if v > b.latestAssigned {
		return false, 0, ErrVersionUnknown
	}
	return v <= b.latestPublished, b.sizes[v], nil
}

// History returns write records for versions in (from, to], for the GC.
func (m *Manager) History(blob uint64, from, to meta.Version) ([]WriteRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[blob]
	if !ok {
		return nil, ErrNoBlob
	}
	out := make([]WriteRecord, 0, len(b.history))
	for _, rec := range b.history {
		if rec.Version > from && rec.Version <= to {
			out = append(out, rec)
		}
	}
	return out, nil
}

// Blobs lists all blob IDs (diagnostics).
func (m *Manager) Blobs() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.blobs))
	for id := range m.blobs {
		out = append(out, id)
	}
	return out
}
