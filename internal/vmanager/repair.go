package vmanager

import (
	"context"
	"fmt"
	"time"

	"blob/internal/meta"
)

// Repair: the liveness extension for dead writers.
//
// A version v that was assigned but never committed would block
// publication of every later version forever (versions publish strictly
// in order). The paper lists fault tolerance for its central entities as
// future work; we close the gap for writers: after RepairTimeout the
// manager materializes v's metadata itself as a logical no-op patch.
//
//   - The node set is exactly WriteSet(v.range) — the same keys the dead
//     writer would have used, so versions > v that already resolved
//     borders against v remain valid.
//   - Interior children that intersect v's range point to v; the rest
//     carry the border versions recomputed from the write history as it
//     was below v (identical to what the writer got at assignment).
//   - Leaves reference the page content of the previous version: the
//     repairer fetches the leaf of the latest version below v covering
//     each page and copies its location. Pages never written resolve to
//     the zero page (LeafData.Write == 0 — readers zero-fill).
//
// Because the metadata store is write-once (first value wins) and its
// values are packed blocks of nodes (meta.NodeRange.Block), any block
// the dead writer did manage to store is kept whole; the repairer's
// blocks fill only the holes. Interior nodes are the same from either
// (both build from the same border set), leaves are the dead writer's
// or the previous snapshot's, block by block. The published content of
// an aborted version is therefore the previous snapshot with a
// possibly-partial application of the failed write — torn-write-on-crash
// semantics; every successfully committed write remains atomic.

// repairLoop scans for expired pending writes four times per
// RepairTimeout.
func (m *Manager) repairLoop() {
	defer m.repairWG.Done()
	ticker := time.NewTicker(m.cfg.RepairTimeout / 4)
	defer ticker.Stop()
	for {
		select {
		case <-m.stopRepair:
			return
		case <-ticker.C:
			m.scanExpired()
		}
	}
}

// scanExpired finds expired writes and repairs them: uncommitted past
// deadline — a dead writer — or aborted but never committed, an orphan
// whose repairing leader died between the abort mark and the fill (the
// new leader picks it up here). Passive replicas skip the scan entirely:
// their leader repairs, and the resulting OpAbort/OpRepaired records
// arrive through the log.
func (m *Manager) scanExpired() {
	if m.passive.Load() {
		return
	}
	now := time.Now()
	m.repairWhere(context.Background(), func(p *pendingWrite) bool {
		return !p.deadline.IsZero() && p.deadline.Before(now)
	})
}

// repairWhere repairs every uncommitted pending version that pick
// selects and no repair is already working on, each within RepairTimeout
// of ctx. A failed repair gets a fresh deadline, so a later scan retries.
func (m *Manager) repairWhere(ctx context.Context, pick func(*pendingWrite) bool) {
	type target struct {
		blob uint64
		v    meta.Version
	}
	var targets []target
	m.mu.Lock()
	for id, b := range m.blobs {
		for v, p := range b.pending {
			if !p.committed && !p.repairing && pick(p) {
				p.repairing = true
				targets = append(targets, target{blob: id, v: v})
			}
		}
	}
	m.mu.Unlock()
	for _, t := range targets {
		rctx, cancel := context.WithTimeout(ctx, m.cfg.RepairTimeout)
		err := m.repairVersion(rctx, t.blob, t.v)
		cancel()
		if err == nil {
			continue
		}
		m.mu.Lock()
		if b, ok := m.blobs[t.blob]; ok {
			if p, ok := b.pending[t.v]; ok {
				p.repairing = false
				p.deadline = time.Now().Add(m.cfg.RepairTimeout)
			}
		}
		m.mu.Unlock()
	}
}

// prevVersionsFor computes, for each page of wr, the latest version BELOW
// v that wrote it — reconstructed from the write history, because the
// interval map has already absorbed versions above v.
func prevVersionsFor(history []WriteRecord, v meta.Version, wr meta.PageRange) []meta.Version {
	out := make([]meta.Version, wr.Count)
	for _, rec := range history {
		if rec.Version >= v {
			continue
		}
		lo, hi := rec.Range.First, rec.Range.End()
		if lo < wr.First {
			lo = wr.First
		}
		if hi > wr.End() {
			hi = wr.End()
		}
		for p := lo; p < hi; p++ {
			if rec.Version > out[p-wr.First] {
				out[p-wr.First] = rec.Version
			}
		}
	}
	return out
}

// repairVersion materializes version v's metadata as a no-op patch and
// then marks it committed so publication can advance.
func (m *Manager) repairVersion(ctx context.Context, blob uint64, v meta.Version) error {
	m.mu.Lock()
	b, ok := m.blobs[blob]
	if !ok {
		m.mu.Unlock()
		return ErrNoBlob
	}
	p, ok := b.pending[v]
	if !ok {
		m.mu.Unlock()
		return nil // already published
	}
	if p.committed {
		m.mu.Unlock()
		return nil
	}
	wr := p.wr
	totalPages := b.totalPages
	// Recompute the same borders the writer received: resolve against
	// history below v. (History records below v are immutable, so this
	// is stable no matter when it runs relative to newer writes.)
	borders := meta.Borders(totalPages, wr)
	for i := range borders {
		borders[i].Ver = maxHistoryIntersecting(b.history, v, borders[i].Child)
	}
	prevVers := prevVersionsFor(b.history, v, wr)
	needMark := !p.aborted
	m.mu.Unlock()

	if needMark {
		// The write did not take effect as issued. The abort mark must
		// reach the group log before the fill, so a leader that dies
		// mid-repair leaves followers an orphan they can finish, not a
		// version they re-admit.
		if err := m.cfg.Replicate(LogRecord{Op: OpAbort, Blob: blob, Version: v}); err != nil {
			return fmt.Errorf("vmanager: repair v%d: replicate abort: %w", v, err)
		}
	}

	// Fetch the previous leaf for every page (outside the lock).
	leaves := make(map[uint64]meta.LeafData, wr.Count)
	for i := uint64(0); i < wr.Count; i++ {
		page := wr.First + i
		pv := prevVers[i]
		if pv == meta.ZeroVersion {
			leaves[page] = meta.LeafData{} // zero page
			continue
		}
		node, err := m.cfg.Store.FetchNode(ctx, meta.NodeKey{
			Blob: blob, Version: pv, Range: meta.NodeRange{Start: page, Size: 1},
		})
		if err != nil {
			return fmt.Errorf("vmanager: repair v%d: fetch prev leaf page %d (v%d): %w", v, page, pv, err)
		}
		leaves[page] = *node.Leaf
	}

	nodes, err := meta.Build(blob, v, totalPages, wr, meta.BorderResolver(borders),
		func(page uint64) (meta.LeafData, error) { return leaves[page], nil })
	if err != nil {
		return fmt.Errorf("vmanager: repair v%d: build: %w", v, err)
	}
	if err := m.cfg.Store.StoreNodes(ctx, nodes); err != nil {
		return fmt.Errorf("vmanager: repair v%d: store: %w", v, err)
	}

	// Publish the repaired version.
	if err := m.cfg.Replicate(LogRecord{Op: OpRepaired, Blob: blob, Version: v}); err != nil {
		return fmt.Errorf("vmanager: repair v%d: replicate publish: %w", v, err)
	}
	return nil
}

// RepairOrphans immediately repairs every version that is aborted but
// not committed — the holes a crashed leader left between its abort
// mark and its fill. A freshly promoted leader calls this so blocked
// blobs recover now rather than a repair-scan period later.
func (m *Manager) RepairOrphans(ctx context.Context) {
	if m.cfg.RepairTimeout <= 0 {
		return
	}
	m.repairWhere(ctx, func(p *pendingWrite) bool { return p.aborted })
}

// maxHistoryIntersecting returns the highest version below v whose write
// intersects r (ZeroVersion if none).
func maxHistoryIntersecting(history []WriteRecord, v meta.Version, r meta.NodeRange) meta.Version {
	var best meta.Version
	for _, rec := range history {
		if rec.Version >= v || rec.Version <= best {
			continue
		}
		if rec.Range.Intersects(r) {
			best = rec.Version
		}
	}
	return best
}
