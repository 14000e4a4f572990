package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

const (
	segPrefix = "seg-"
	segSuffix = ".log"
)

// segment is one append-only file of records. Its bytes are immutable
// once written (only the tail grows), so concurrent ReadAt needs no
// locking. size and live are guarded by the store's writer lock.
type segment struct {
	id   uint64
	path string
	f    *os.File
	size int64 // bytes written (valid prefix after recovery)
	live int64 // bytes occupied by live put records

	// idx accumulates the segment's sidecar entries as records are
	// appended (or replayed at open), so sealing writes the sidecar from
	// memory instead of re-reading and re-decoding the segment under the
	// store's writer lock. Guarded by the writer lock; cleared when the
	// segment is sealed.
	idx *sidecar

	// refs counts in-flight readers, plus one for store membership and
	// one while the segment's background seal runs; the count reaching
	// zero closes and removes the file. Compaction drops
	// the membership ref after unmapping the segment from the index, so
	// the file disappears only after the last concurrent reader is done.
	refs    atomic.Int64
	doomed  atomic.Bool // remove the file once refs drains
	retired atomic.Bool
}

func segmentPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, id, segSuffix))
}

// openSegment opens (or creates) segment id for reading and appending.
func openSegment(dir string, id uint64) (*segment, error) {
	path := segmentPath(dir, id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	seg := &segment{id: id, path: path, f: f}
	seg.refs.Store(1) // store-membership reference
	return seg, nil
}

// acquire pins the segment's file open for one reader.
func (g *segment) acquire() { g.refs.Add(1) }

// noteRecord feeds one just-appended (or just-replayed) record into the
// segment's sidecar accumulator. Caller holds the store's writer lock
// (or owns the store exclusively during Open).
func (g *segment) noteRecord(m recMeta, off, size int64) {
	if g.idx == nil {
		g.idx = &sidecar{id: g.id}
	}
	sc := g.idx
	if m.seq > sc.maxSeq {
		sc.maxSeq = m.seq
	}
	switch m.op {
	case opPut:
		sc.puts = append(sc.puts, sidecarPut{
			blob: m.blob, write: m.write, rel: m.rel,
			seq: m.seq, off: off, size: size,
		})
	case opDelPages:
		for _, rel := range m.rels {
			sc.delPages = append(sc.delPages, sidecarDelPages{
				blob: m.blob, write: m.write, rel: rel, seq: m.seq,
			})
		}
	case opDelWrite:
		sc.delWrites = append(sc.delWrites, sidecarDelWrite{
			blob: m.blob, write: m.write, seq: m.seq,
		})
	}
}

// release drops a reader pin, closing and removing the file if the
// segment was retired and this was the last reference. A removed
// segment's index sidecar goes with it — the records it described no
// longer exist.
func (g *segment) release() {
	if g.refs.Add(-1) == 0 {
		g.f.Close()
		if g.doomed.Load() {
			os.Remove(g.path)
			os.Remove(sidecarPath(filepath.Dir(g.path), g.id))
		}
	}
}

// retire drops the store-membership reference, at most once. With
// remove set the file is unlinked after the last reader drains.
func (g *segment) retire(remove bool) {
	if g.retired.Swap(true) {
		return
	}
	g.doomed.Store(remove)
	g.release()
}
