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
	// Store gives the repair path access to the metadata providers.
	// Required only when RepairTimeout > 0.
	Store NodeStore
	// Replicate carries the repair path's two mutations (OpAbort: the
	// abort mark, OpRepaired: the final repaired commit). A Replica sets
	// it to propose them like any client mutation, so followers see
	// them in log order (see replica.go). Required only when
	// RepairTimeout > 0; invoked with no Manager locks held.
	Replicate func(rec LogRecord) error
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
	// group's followers run passive: they apply the leader's log and
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
	m := &Manager{
		cfg:        cfg,
		blobs:      make(map[uint64]*blobState),
		nextID:     1,
		stopRepair: make(chan struct{}),
	}
	if cfg.RepairTimeout > 0 {
		if cfg.Store == nil || cfg.Replicate == nil {
			panic("vmanager: RepairTimeout set without a NodeStore and a Replicate hook")
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

// createLocked applies OpCreate: the paper's ALLOC, a blob of Capacity
// bytes in PageSize pages with its redundancy mode fixed for life (the
// mode shapes every write's metadata, so it cannot change once pages
// exist). Capacity/PageSize must be a power of two. Idempotent for an
// identical existing blob.
func (m *Manager) createLocked(rec LogRecord) (applied, error) {
	red := erasure.Redundancy{K: int(rec.K), M: int(rec.M)}
	if err := validateGeometry(rec.PageSize, rec.Capacity, red); err != nil {
		return applied{}, err
	}
	totalPages := rec.Capacity / rec.PageSize
	if prev, ok := m.blobs[rec.Blob]; ok {
		if prev.pageSize == rec.PageSize && prev.totalPages == totalPages && prev.red == red {
			return applied{blob: rec.Blob}, nil
		}
		return applied{}, fmt.Errorf("vmanager: blob %d already exists with different geometry", rec.Blob)
	}
	ivm, err := meta.NewIntervalVersionMap(totalPages)
	if err != nil {
		return applied{}, fmt.Errorf("vmanager: %w", err)
	}
	m.blobs[rec.Blob] = &blobState{
		id:         rec.Blob,
		pageSize:   rec.PageSize,
		totalPages: totalPages,
		red:        red,
		sizes:      []uint64{0},
		ivm:        ivm,
		pending:    make(map[meta.Version]*pendingWrite),
		changed:    make(chan struct{}),
	}
	if rec.Blob >= m.nextID {
		m.nextID = rec.Blob + 1
	}
	return applied{changed: true, blob: rec.Blob}, nil
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

// applied is what applying one record reports back to a proposing
// leader.
type applied struct {
	// changed reports that the record moved state, so the leader logs
	// it; a duplicate commit or abort changes nothing and is not logged.
	changed bool
	blob    uint64       // OpCreate: the new blob's id
	a       Assignment   // OpAssign
	pub     meta.Version // OpCommit: the latest published version after it
}

// resolve fills in the fields of rec that only a leader chooses, reading
// the applied state without changing it: the next blob id, and for an
// assign the next version and, for an append, the offset at the logical
// end of the blob.
func (m *Manager) resolve(rec *LogRecord, isAppend bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch rec.Op {
	case OpCreate:
		rec.Blob = m.nextID
	case OpAssign:
		if b, ok := m.blobs[rec.Blob]; ok {
			rec.Version = b.latestAssigned + 1
			if isAppend {
				rec.Offset = b.sizes[b.latestAssigned]
			}
		}
	}
}

// ApplyRecord applies one replicated log record to the manager's state —
// the follower half of the group replication protocol. Records must be
// applied in log order; any divergence from the leader's expectations
// (version mismatch, unknown blob) is returned as an error, signalling
// the replica layer to resynchronize from a snapshot rather than limp
// on with drifted state.
func (m *Manager) ApplyRecord(rec LogRecord) error {
	_, err := m.apply(rec)
	if rec.Op == OpCommit && errors.Is(err, ErrAborted) {
		// The leader logs a commit only while the version is live, so
		// in order this cannot happen — but a duplicate delivery after
		// a later abort record can.
		return nil
	}
	return err
}

// apply is the one mutator of the manager's versioned state: a leader's
// proposals (replica.go) and a follower's log replay both land here, so
// a follower's state is a deterministic function of the record stream.
func (m *Manager) apply(rec LogRecord) (applied, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec.Op == OpCreate {
		return m.createLocked(rec)
	}
	b, ok := m.blobs[rec.Blob]
	if !ok {
		return applied{}, ErrNoBlob
	}
	switch rec.Op {
	case OpAssign:
		a, err := m.assignLocked(b, rec)
		return applied{changed: err == nil, a: a}, err
	case OpCommit:
		return m.commitLocked(b, rec.Version)
	case OpAbort:
		changed, err := m.abortLocked(b, rec.Version)
		return applied{changed: changed}, err
	case OpRepaired:
		return applied{changed: m.repairedLocked(b, rec.Version)}, nil
	default:
		return applied{}, fmt.Errorf("%w: unknown op %d", ErrLogCorrupt, rec.Op)
	}
}

// assignLocked serializes a write into the version order. The returned
// border set reflects exactly the writes numbered below the new version,
// whether or not they have published — the mechanism that lets
// concurrent writers proceed without synchronizing with each other. The
// record's version must be the next one: anything else is a replica
// that diverged from its leader.
func (m *Manager) assignLocked(b *blobState, rec LogRecord) (Assignment, error) {
	if rec.Offset%b.pageSize != 0 || rec.Length == 0 || rec.Length%b.pageSize != 0 {
		return Assignment{}, fmt.Errorf("%w: offset %d length %d not aligned to page size %d",
			ErrBadRange, rec.Offset, rec.Length, b.pageSize)
	}
	wr := meta.PageRange{First: rec.Offset / b.pageSize, Count: rec.Length / b.pageSize}
	if err := meta.ValidateGeometry(b.totalPages, wr); err != nil {
		return Assignment{}, fmt.Errorf("%w: %v", ErrBadRange, err)
	}
	v := b.latestAssigned + 1
	if rec.Version != v {
		return Assignment{}, fmt.Errorf("vmanager: replay diverged: assigned v%d, log says v%d (blob %d)",
			v, rec.Version, b.id)
	}
	borders := meta.Borders(b.totalPages, wr)
	b.ivm.ResolveBorders(borders) // before Assign: sees versions 1..v-1
	b.ivm.Assign(wr, v)
	b.latestAssigned = v
	b.sizes = append(b.sizes, max(b.sizes[v-1], rec.Offset+rec.Length))

	var deadline time.Time
	if m.cfg.RepairTimeout > 0 {
		deadline = time.Now().Add(m.cfg.RepairTimeout)
	}
	b.pending[v] = &pendingWrite{wr: wr, writeID: rec.WriteID, deadline: deadline}
	b.history = append(b.history, WriteRecord{Version: v, Range: wr, WriteID: rec.WriteID})
	m.Assigns.Inc()
	return Assignment{Version: v, Offset: rec.Offset, Borders: borders}, nil
}

// commitLocked records that the writer of v finished storing data and
// metadata, and publishes the longest committed prefix. A version
// already published (the repair path may have completed it on the
// writer's behalf) answers with the latest published version unless it
// was aborted.
func (m *Manager) commitLocked(b *blobState, v meta.Version) (applied, error) {
	p, ok := b.pending[v]
	switch {
	case ok && p.aborted:
		return applied{}, fmt.Errorf("%w: version %d", ErrAborted, v)
	case !ok && v <= b.latestPublished && historyAborted(b.history, v):
		return applied{}, fmt.Errorf("%w: version %d", ErrAborted, v)
	case !ok && v > b.latestPublished:
		return applied{}, fmt.Errorf("%w: version %d", ErrNotPending, v)
	}
	res := applied{changed: ok && !p.committed}
	if res.changed {
		p.committed = true
		m.Commits.Inc()
		m.advanceLocked(b)
	}
	res.pub = b.latestPublished
	return res, nil
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

// abortLocked withdraws an assigned version (the writer knows it failed,
// or the repair path takes over) and wakes blocked commits; the repair
// fill follows separately. A version no longer pending but already
// flagged in history (a replayed abort) is accepted unchanged.
func (m *Manager) abortLocked(b *blobState, v meta.Version) (changed bool, err error) {
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
	markHistoryAborted(b.history, v)
	m.Aborts.Inc()
	close(b.changed)
	b.changed = make(chan struct{})
	return true, nil
}

// repairedLocked is the second half of the repair path: the version's
// metadata exists (the leader stored it), so flag it aborted-and-
// committed and advance publication. Idempotent.
func (m *Manager) repairedLocked(b *blobState, v meta.Version) (changed bool) {
	changed = markHistoryAborted(b.history, v)
	p, ok := b.pending[v]
	if !ok || (p.aborted && p.committed) {
		return changed
	}
	p.aborted = true
	if !p.committed {
		p.committed = true
		m.Repairs.Inc()
		m.advanceLocked(b)
	}
	return true
}

// markHistoryAborted flags v aborted in the write history, reporting
// whether the flag was not already set.
func markHistoryAborted(history []WriteRecord, v meta.Version) bool {
	for i := len(history) - 1; i >= 0; i-- {
		if history[i].Version == v {
			was := history[i].Aborted
			history[i].Aborted = true
			return !was
		}
	}
	return false
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
