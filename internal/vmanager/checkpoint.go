package vmanager

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/wire"
)

// The follower snapshot-install format. A replica that fell behind the
// group log's truncation horizon, diverged, or is campaigning against a
// fresher peer catches up by snapshot instead of log replay
// (docs/vmanager-group.md): the leader serializes its Manager's entire
// state — blob geometry, version counters, logical sizes, the write
// history and the pending set — with Checkpoint, ships it over MVmInstall
// or MVmState, and the receiver rebuilds a Manager with Restore,
// reconstructing each blob's interval-version map by replaying its write
// history in version order. The stream lives only on the wire between
// replicas of one build, so it carries no compatibility with older
// layouts; data and metadata live on the providers and the DHT and need
// no recovery.

// checkpointMagic identifies the stream format.
const checkpointMagic = 0x424c4f42564d4732 // "BLOBVMG2"

// historyRecordBytes is the least a WriteRecord encodes in, here and in
// MHistory replies: three uvarints, a u64 write id and an aborted flag.
const historyRecordBytes = 3 + 8 + 1

// Checkpoint serializes the manager's full state, blobs and pending
// writes in ascending order, so equal states give equal bytes. It holds
// the manager lock for the duration, so writes pause briefly; state
// sizes are small (history records, not data).
func (m *Manager) Checkpoint() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()

	enc := wire.NewWriter(1 << 16)
	enc.Uint64(checkpointMagic)
	enc.Uint64(m.nextID)
	enc.Uvarint(uint64(len(m.blobs)))
	for _, id := range slices.Sorted(maps.Keys(m.blobs)) {
		b := m.blobs[id]
		enc.Uint64(id)
		enc.Uint64(b.pageSize)
		enc.Uint64(b.totalPages)
		enc.Uint8(uint8(b.red.K))
		enc.Uint8(uint8(b.red.M))
		enc.Uint64(b.latestAssigned)
		enc.Uint64(b.latestPublished)
		enc.Uint64Slice(b.sizes)
		enc.Uvarint(uint64(len(b.history)))
		for _, rec := range b.history {
			enc.Uvarint(rec.Version)
			enc.Uvarint(rec.Range.First)
			enc.Uvarint(rec.Range.Count)
			enc.Uint64(rec.WriteID)
			enc.Bool(rec.Aborted)
		}
		enc.Uvarint(uint64(len(b.pending)))
		for _, v := range slices.Sorted(maps.Keys(b.pending)) {
			p := b.pending[v]
			enc.Uvarint(v)
			enc.Uvarint(p.wr.First)
			enc.Uvarint(p.wr.Count)
			enc.Uint64(p.writeID)
			enc.Bool(p.committed)
			enc.Bool(p.aborted)
		}
	}
	return enc.Bytes()
}

// Restore rebuilds a Manager from a checkpoint stream. The configuration
// (repair timeout, node store) is the receiving replica's own — it is
// deployment state, not blob state. Pending writes resume with fresh
// repair deadlines; their writers may still commit normally.
func Restore(raw []byte, cfg Config) (*Manager, error) {
	dec := wire.NewReader(raw)
	magic := dec.Uint64()
	if magic != checkpointMagic {
		return nil, fmt.Errorf("vmanager: restore: bad magic %#x", magic)
	}
	m := New(cfg)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID = dec.Uint64()
	nblobs := dec.Count(5*8 + 2 + 3) // five u64s, the k/m bytes, three counts
	for i := 0; i < nblobs; i++ {
		id := dec.Uint64()
		b := &blobState{
			id:         id,
			pageSize:   dec.Uint64(),
			totalPages: dec.Uint64(),
			red:        erasure.Redundancy{K: int(dec.Uint8()), M: int(dec.Uint8())},
			pending:    make(map[meta.Version]*pendingWrite),
			changed:    make(chan struct{}),
		}
		b.latestAssigned = dec.Uint64()
		b.latestPublished = dec.Uint64()
		b.sizes = dec.Uint64Slice()
		// A forged count beyond what the stream can hold fails the
		// reader here rather than spin a 2^40-iteration loop of zero
		// records.
		nhist := dec.Count(historyRecordBytes)
		for j := 0; j < nhist; j++ {
			b.history = append(b.history, WriteRecord{
				Version: dec.Uvarint(),
				Range:   meta.PageRange{First: dec.Uvarint(), Count: dec.Uvarint()},
				WriteID: dec.Uint64(),
				Aborted: dec.Bool(),
			})
		}
		npend := dec.Count(historyRecordBytes + 1) // a second flag
		for j := 0; j < npend; j++ {
			v := dec.Uvarint()
			p := &pendingWrite{
				wr:        meta.PageRange{First: dec.Uvarint(), Count: dec.Uvarint()},
				writeID:   dec.Uint64(),
				committed: dec.Bool(),
				aborted:   dec.Bool(),
			}
			if cfg.RepairTimeout > 0 {
				p.deadline = time.Now().Add(cfg.RepairTimeout)
			}
			b.pending[v] = p
		}
		if err := dec.Err(); err != nil {
			return nil, fmt.Errorf("vmanager: restore blob %d: %w", id, err)
		}
		// Validate the decoded state before replay: IntervalVersionMap
		// panics on out-of-range or out-of-order assignments (its
		// in-process callers guarantee both), so a corrupt stream must
		// be rejected here, never replayed.
		if err := validateBlobState(b); err != nil {
			return nil, fmt.Errorf("vmanager: restore blob %d: %w", id, err)
		}
		// Rebuild the interval map by replaying history in order (the
		// history is append-only, hence already version-ordered).
		ivm, err := meta.NewIntervalVersionMap(b.totalPages)
		if err != nil {
			return nil, fmt.Errorf("vmanager: restore blob %d: %w", id, err)
		}
		for _, rec := range b.history {
			ivm.Assign(rec.Range, rec.Version)
		}
		b.ivm = ivm
		m.blobs[id] = b
	}
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("vmanager: restore: %w", err)
	}
	return m, nil
}

// validateBlobState checks a decoded blob's internal consistency so the
// history replay cannot panic and the counters cannot index out of
// bounds. Torn or bit-flipped snapshots land here, not in a crash.
func validateBlobState(b *blobState) error {
	if err := b.red.Validate(); err != nil {
		return err
	}
	if !meta.IsPowerOfTwo(b.pageSize) || !meta.IsPowerOfTwo(b.totalPages) {
		return fmt.Errorf("geometry not a power of two (pageSize %d, totalPages %d)", b.pageSize, b.totalPages)
	}
	if b.latestPublished > b.latestAssigned {
		return fmt.Errorf("published v%d beyond assigned v%d", b.latestPublished, b.latestAssigned)
	}
	if b.latestAssigned+1 == 0 || uint64(len(b.sizes)) != b.latestAssigned+1 {
		return fmt.Errorf("%d sizes for %d assigned versions", len(b.sizes), b.latestAssigned)
	}
	prev := meta.ZeroVersion
	for _, rec := range b.history {
		if rec.Version <= prev || rec.Version > b.latestAssigned {
			return fmt.Errorf("history version v%d out of order (prev v%d, assigned v%d)",
				rec.Version, prev, b.latestAssigned)
		}
		if err := meta.ValidateGeometry(b.totalPages, rec.Range); err != nil {
			return fmt.Errorf("history v%d: %w", rec.Version, err)
		}
		prev = rec.Version
	}
	for v, p := range b.pending {
		if v <= b.latestPublished || v > b.latestAssigned {
			return fmt.Errorf("pending v%d outside (%d, %d]", v, b.latestPublished, b.latestAssigned)
		}
		if err := meta.ValidateGeometry(b.totalPages, p.wr); err != nil {
			return fmt.Errorf("pending v%d: %w", v, err)
		}
	}
	return nil
}
