package diskstore

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"blob/internal/trace"
)

// Compaction rewrites mostly-dead sealed segments: every still-live put
// record is re-appended (bytes verbatim — records are self-contained,
// already checksummed, and keep their sequence number) to the active
// segment, the index is repointed, and the old file is unmapped and
// unlinked once the last pin on it is released — its index sidecar with
// it; the records live on in whatever segment received them, which gets
// its own sidecar when it seals. Reads never block: a reader that
// resolved the old location before the repoint, or a response still
// sending pages from it, keeps the old segment mapped until it releases
// its pin.
//
// Tombstones need care: a tombstone guards every dead put record with a
// lower sequence number that is still physically on disk — dropping it
// while such a put survives would resurrect the page on the next
// restart (recovery resolves by sequence number, so *where* the records
// sit is irrelevant, but *whether* the tombstone exists is not). Dead
// puts are never rewritten, and a record's segment is never newer than
// segments created after it, so every put a tombstone guards lives in a
// segment with an id at most the tombstone's own. The compactor
// therefore rewrites tombstones verbatim, dropping them only when the
// candidate is the oldest segment — where anything they guard is being
// dropped in the same pass.

// compactEvery is the background compaction period. Compaction can also
// be driven explicitly through CompactOnce.
const compactEvery = time.Minute

// compactLoop drives CompactOnce every compactEvery until the store
// closes, under the profiler label diskstore=compact.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	pprof.Do(context.Background(), pprof.Labels("diskstore", "compact"), func(context.Context) {
		t := time.NewTicker(compactEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				for {
					again, err := s.CompactOnce()
					if err != nil || !again {
						break
					}
				}
			}
		}
	})
}

// CompactOnce rewrites the deadest sealed segment whose dead fraction is
// at least Options.CompactMinDead. It reports whether a segment was
// compacted; false with a nil error means nothing qualified.
func (s *Store) CompactOnce() (bool, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return false, ErrClosed
	}
	var cand *segment
	var candDead float64
	minID := uint64(0)
	for id, seg := range s.segs {
		if minID == 0 || id < minID {
			minID = id
		}
		if seg == s.active || seg.size == 0 {
			continue
		}
		dead := float64(seg.size-seg.live) / float64(seg.size)
		if dead >= s.opts.CompactMinDead && (cand == nil || dead > candDead) {
			cand, candDead = seg, dead
		}
	}
	if cand != nil {
		cand.acquire()
	}
	size := int64(0)
	if cand != nil {
		size = cand.size // sealed: immutable from here on
	}
	s.mu.RUnlock()
	if cand == nil {
		return false, nil
	}
	defer cand.release()
	dropTombstones := cand.id == minID

	// The candidate is decoded where it lies in its mapping, and its
	// surviving records are appended straight from there.
	var err error
	if !readMapped(func() { err = s.rewriteSegment(cand, size, dropTombstones) }) {
		err = fmt.Errorf("diskstore: compact %s: fault reading the mapped segment", cand.path)
	}
	if err != nil {
		return false, err
	}

	// The rewritten records must be durable before the only other copy
	// is unlinked: power loss between the unlink and a page-cache flush
	// would otherwise lose pages that had already survived restarts.
	// Some may sit in a segment a roll handed to the sealer meanwhile.
	s.mu.Lock()
	err = s.waitSealLocked()
	if err == nil && s.active != nil {
		err = syncFile(s.active.f)
	}
	if err != nil {
		s.mu.Unlock()
		return false, fmt.Errorf("diskstore: compact sync: %w", err)
	}
	delete(s.segs, cand.id)
	s.compactions++
	s.mu.Unlock()
	cand.retire(true)
	s.opts.Tracer.Emit(trace.SevInfo, trace.CompactionDone, size-cand.live,
		"rewrote segment %d: %d of %d bytes dead reclaimed", cand.id, size-cand.live, size)
	return true, nil
}

// rewriteSegment migrates the first size bytes of a segment being
// compacted, record by record. The caller holds a pin on cand.
func (s *Store) rewriteSegment(cand *segment, size int64, dropTombstones bool) error {
	if size > int64(len(cand.data)) {
		return fmt.Errorf("diskstore: compact %s: %d bytes exceed its %d-byte mapping", cand.path, size, len(cand.data))
	}
	buf := cand.data[:size]
	for off := int64(0); off < size; {
		rec, n, err := decodeRecord(buf[off:])
		if err != nil {
			// A sealed segment should never fail to decode; leave it in
			// place rather than silently dropping its tail.
			return fmt.Errorf("diskstore: compact %s at %d: %w", cand.path, off, err)
		}
		raw := buf[off : off+int64(n)]
		if err := s.rewriteRecord(cand, rec, off, raw, dropTombstones); err != nil {
			return err
		}
		off += int64(n)
	}
	return nil
}

// rewriteRecord migrates one record out of a segment being compacted:
// a live put or a tombstone is re-appended, anything else dropped.
func (s *Store) rewriteRecord(cand *segment, rec record, off int64, raw []byte, dropTombstones bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	switch rec.op {
	case opPut:
		k := writeKey{rec.blob, rec.write}
		old, ok := s.index[k][rec.rel]
		if !ok || old.seg != cand || old.off != off {
			return nil // dead (deleted or duplicate): drop
		}
		l, err := s.appendLocked(raw, rec.meta())
		if err != nil {
			return err
		}
		s.index[k][rec.rel] = l
		l.seg.live += l.size
	case opDelPages, opDelWrite:
		if dropTombstones {
			return nil
		}
		if _, err := s.appendLocked(raw, rec.meta()); err != nil {
			return err
		}
	}
	return nil
}
