package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
)

const (
	segPrefix = "seg-"
	segSuffix = ".log"
)

// segment is one append-only file of records. Its bytes are immutable
// once written (only the tail grows), so reads of its mapping need no
// locking. size and live are guarded by the store's writer lock.
type segment struct {
	id   uint64
	path string
	f    *os.File // appends, fsync and recovery truncation
	size int64    // bytes written (valid prefix after recovery)
	live int64    // bytes occupied by live put records

	// data is the segment's one read-only shared mapping, made when the
	// segment is opened and unmapped when refs drains: every record read
	// and compaction's decode go through it. Appends reach it through the
	// page cache. It spans at least 2 × Options.SegmentSize and at least
	// the file's size at open, and appends keep size within it (see
	// Store.fits), so a record never lies past the mapping.
	data []byte

	// idx accumulates the segment's sidecar entries as records are
	// appended (or replayed at open), so sealing writes the sidecar from
	// memory instead of re-reading and re-decoding the segment under the
	// store's writer lock. Guarded by the writer lock; cleared when the
	// segment is sealed.
	idx *sidecar

	// refs counts pins (a reader's, or a served page's until its
	// response is flushed), plus one for store membership and one while
	// the segment's background seal runs; the count reaching zero unmaps
	// the segment and closes and removes the file. Compaction drops the
	// membership ref after repointing the index away from the segment,
	// so the mapping and the file go only after the last pin is
	// released.
	refs    atomic.Int64
	doomed  atomic.Bool // remove the file once refs drains
	retired atomic.Bool
}

func segmentPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, id, segSuffix))
}

// openSegment opens (or creates) segment id for appending and maps it
// for reading over span bytes, or over the whole file if it is longer.
// Mapped pages past the end of the file fault until appends reach them.
func openSegment(dir string, id uint64, span int64) (*segment, error) {
	path := segmentPath(dir, id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	span = max(span, fi.Size())
	data, err := syscall.Mmap(int(f.Fd()), 0, int(span), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("diskstore: map %s: %w", path, err)
	}
	seg := &segment{id: id, path: path, f: f, data: data}
	seg.refs.Store(1) // store-membership reference
	return seg, nil
}

// acquire pins the segment's mapping and file for one reader.
func (g *segment) acquire() { g.refs.Add(1) }

// readPut verifies the put record at [off, off+size) where it lies in
// the mapping and returns its page bytes, which alias the mapping. A
// record reaching past the mapping, failing its checksum, or faulting
// (the file was cut short behind the store's back) reads as absent.
// The caller holds a pin.
func (g *segment) readPut(off, size int64) (data []byte, ok bool) {
	if off+size > int64(len(g.data)) {
		return nil, false
	}
	if !readMapped(func() {
		if rec, _, err := decodeRecord(g.data[off : off+size]); err == nil && rec.op == opPut {
			data = rec.data
		}
	}) {
		return nil, false
	}
	return data, data != nil
}

// readMapped runs read, which touches mapped segment bytes, with a
// fault on a mapped page (the file shrank under the mapping, or an I/O
// error behind it) turned into a panic, and reports whether read ran to
// completion instead of faulting. Any other panic propagates.
func readMapped(read func()) (ok bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if ok {
			return
		}
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
		}
	}()
	read()
	return true
}

// Pin keeps one segment mapped while page bytes ReadPage returned from
// it are in use. Release it exactly once, after the last use of those
// bytes: a second Release panics, as an rpc.Buf's does. Pins are
// pooled, so a pin released twice with a reuse in between is released
// on behalf of its next owner, whose own Release then panics.
type Pin struct {
	seg      *segment
	released atomic.Bool
}

var pins = sync.Pool{New: func() any { return new(Pin) }}

// pin hands out a Pin for a segment the caller has acquired.
func (g *segment) pin() *Pin {
	p := pins.Get().(*Pin)
	p.seg = g
	p.released.Store(false)
	return p
}

// Release drops the pin; the segment is unmapped once nothing else
// holds it. It never writes to the mapping.
func (p *Pin) Release() {
	if p.released.Swap(true) {
		panic("diskstore: Pin double Release")
	}
	g := p.seg
	p.seg = nil
	pins.Put(p)
	g.release()
}

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

// release drops a reference. The last one unmaps the segment and closes
// its file, and removes the file if the segment was retired with remove
// set. A removed segment's index sidecar goes with it — the records it
// described no longer exist.
func (g *segment) release() {
	if g.refs.Add(-1) == 0 {
		syscall.Munmap(g.data)
		g.data = nil
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
