// Package diskstore is a crash-recoverable persistent page store: the
// disk-backed counterpart of the data provider's in-RAM store. It keeps
// the paper's access model — pages are immutable once written, a write
// never updates data in place, deletion happens only when the garbage
// collector orders it — and adds durability so a provider restarted over
// its data directory serves every page it held before the crash.
//
// Layout: pages (blob, write, rel) → data are appended as checksummed
// records into fixed-size segment files (seg-NNNNNNNN.log) under one
// directory. Deletions append tombstone records. An in-memory index maps
// each live page to its (segment, offset) and is rebuilt on startup; a
// torn final record — the footprint of a crash mid-append — is truncated
// away, keeping every record before it. Per-segment live-byte accounting
// feeds a compactor that rewrites mostly-dead segments' surviving
// records to the active segment and deletes the file, reclaiming disk
// after garbage collection. The compactor runs once a minute.
//
// Restart cost is O(live index), not O(disk): sealing a segment writes a
// checksummed index sidecar (seg-NNNNNNNN.idx, see index.go and
// docs/diskstore-format.md) holding the segment's index entries and
// tombstones. Open absorbs sealed segments by reading only their
// sidecars; the active tail segment is always replayed, and a segment
// whose sidecar is missing, stale or corrupt degrades to a full replay
// of just that segment, after which its sidecar is rewritten. A crash
// can tear only the newest two segments: the active one, and the one
// below it if its seal was still running.
//
// Reads: each segment is mapped once, read-only and shared, when it is
// opened, and that mapping is the one way a record is read. A read takes
// a read lock only to resolve the index and pin the segment, then
// verifies the record checksum where the record lies in the mapping and
// returns the page bytes in place, with the pin: a provider sends them
// to the socket from there and releases the pin once the response is
// flushed. A fault on a mapped page (a file cut short behind the
// store's back) reports the page absent, as a checksum mismatch does.
// Mapping needs syscall.Mmap, so the package builds on unix only.
//
// Concurrency: appends and index mutations serialize on one writer lock;
// records are immutable once written, so reads proceed in parallel with
// appends and with compaction. Sealing a full segment (its fsync, then
// its sidecar write) runs in the background, one seal at a time, so no
// put or read waits on that fsync; only the next roll, a Sync put,
// compaction and Close wait for it. A segment being compacted away is
// dropped from the index first; it is unmapped and its file closed (and
// removed) only when the last pin on it is released.
package diskstore

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"blob/internal/trace"
)

// Options configures a Store.
type Options struct {
	// Dir is the segment directory; created if absent.
	Dir string
	// SegmentSize is the size at which the active segment is sealed and a
	// new one started (default 4 MiB). Individual records may exceed it —
	// a segment always holds at least one record. Each segment is mapped
	// over 2 × SegmentSize; a record that would end past that starts a
	// segment of its own, mapped over it.
	SegmentSize int64
	// Capacity bounds live page payload bytes (0 = unlimited). A put
	// batch whose genuinely new pages would exceed it fails atomically
	// with ErrCapacity before anything is written; already-present pages
	// don't count, so idempotent retries near the limit stay safe.
	Capacity int64
	// Sync makes every append batch fsync before returning. Off by
	// default: the paper's providers favour throughput, and recovery
	// already tolerates a torn tail.
	Sync bool
	// CompactMinDead is the fraction of a sealed segment's bytes that
	// must be dead before the compactor rewrites it (default 0.5).
	CompactMinDead float64
	// Tracer, if set, records compactions and sidecar-degrade
	// recoveries as cluster events for the monitor plane.
	Tracer *trace.Tracer
}

func (o *Options) fillDefaults() {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.CompactMinDead <= 0 || o.CompactMinDead > 1 {
		o.CompactMinDead = 0.5
	}
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("diskstore: closed")

// ErrCapacity is returned when a put batch's new pages would exceed
// Options.Capacity.
var ErrCapacity = errors.New("diskstore: capacity exceeded")

// writeKey identifies all pages of one write on one blob.
type writeKey struct {
	blob  uint64
	write uint64
}

// loc locates one live page record inside a segment.
type loc struct {
	seg  *segment
	off  int64 // record start (length prefix)
	size int64 // total encoded size, header included
}

func (l loc) dataLen() int64 { return l.size - recHeaderSize - putBodyPrefix }

// Store is a persistent page store over one directory of segment files.
type Store struct {
	opts Options

	mu      sync.RWMutex
	index   map[writeKey]map[uint32]loc
	segs    map[uint64]*segment
	active  *segment
	nextID  uint64
	nextSeq uint64 // next record sequence number (see record.go)
	batch   []byte // PutPages encode buffer, reused under mu
	closed  bool
	sealing *sealJob // the one background seal in flight, if any

	pageCount int64
	pageBytes int64 // live page payload bytes

	compactions int64
	truncated   int64 // bytes discarded by torn-tail recovery

	// Recovery telemetry, written once by Open.
	replayedBytes  int64 // segment bytes fully replayed at open
	sidecarBytes   int64 // sidecar bytes read in place of replay
	segsReplayed   int64 // segments that took the replay path
	sidecarsLoaded int64 // segments absorbed from their sidecar

	stop chan struct{}
	wg   sync.WaitGroup
}

// Stats is a point-in-time usage snapshot.
type Stats struct {
	// Pages and PageBytes count live pages and their payload bytes.
	Pages     int64
	PageBytes int64
	// DiskBytes is the total size of all segment files; LiveBytes is the
	// portion occupied by live page records. Their ratio drives
	// compaction.
	DiskBytes int64
	LiveBytes int64
	// Segments counts segment files, the active one included.
	Segments int64
	// Compactions counts segments rewritten since open; TruncatedBytes
	// counts bytes discarded by torn-tail recovery at open.
	Compactions    int64
	TruncatedBytes int64
	// Recovery telemetry from Open: ReplayedBytes is segment-file bytes
	// that had to be fully replayed (the active tail plus any segment
	// lacking a usable sidecar), SidecarBytes is index-sidecar bytes read
	// in their place, and SegmentsReplayed / SidecarsLoaded count the
	// segments that took each path.
	ReplayedBytes    int64
	SidecarBytes     int64
	SegmentsReplayed int64
	SidecarsLoaded   int64
}

// LiveRatio is LiveBytes/DiskBytes, 1 for an empty store.
func (s Stats) LiveRatio() float64 {
	if s.DiskBytes == 0 {
		return 1
	}
	return float64(s.LiveBytes) / float64(s.DiskBytes)
}

// Open opens (or creates) the store in opts.Dir, rebuilding the page
// index. Sealed segments with a valid index sidecar are absorbed by
// reading only the sidecar; the newest segment — the active tail — is
// always replayed, and a torn final record is truncated away, keeping
// every record before it. The segment below the tail gets the same
// treatment when it has no usable sidecar: its seal may have been cut
// short before its fsync. Any other sealed segment whose sidecar is
// missing, stale or corrupt is fully replayed instead, and its sidecar
// rewritten for the next restart.
func Open(opts Options) (*Store, error) {
	opts.fillDefaults()
	if opts.Dir == "" {
		return nil, errors.New("diskstore: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		opts:    opts,
		index:   make(map[writeKey]map[uint32]loc),
		segs:    make(map[uint64]*segment),
		nextID:  1,
		nextSeq: 1,
		stop:    make(chan struct{}),
	}
	ids, err := listSegmentIDs(opts.Dir)
	if err != nil {
		return nil, err
	}
	removeOrphanSidecars(opts.Dir, ids)
	replay := newReplayState()
	var replayed []*segment // sealed segments that need a fresh sidecar
	for i, id := range ids {
		seg, err := openSegment(opts.Dir, id, 2*opts.SegmentSize)
		if err != nil {
			s.closeAll()
			return nil, err
		}
		last := i == len(ids)-1
		// The segment below the tail may still have been sealing when the
		// process died: its sidecar exists only once its fsync finished,
		// so without one it can be torn like the tail.
		mayBeTorn := i >= len(ids)-2
		if !last {
			if fi, err := seg.f.Stat(); err == nil && fi.Size() == 0 {
				// The segment holds no records, so recover it as empty by
				// deleting it — keeping it would pin the oldest-segment id
				// forever and block the compactor's tombstone dropping. A
				// roll that crashed before its first append leaves no
				// sidecar; one that lists records means the file was
				// zeroed under them, and their loss is reported.
				if sc, _ := readSidecar(opts.Dir, id); sc != nil {
					if n := len(sc.puts) + len(sc.delPages) + len(sc.delWrites); n > 0 {
						opts.Tracer.Emit(trace.SevError, trace.SidecarDegrade, int64(n),
							"segment %s: empty, but its sidecar lists %d records; they are lost", seg.path, n)
					}
				}
				seg.retire(true)
				s.nextID = id + 1
				continue
			}
			if s.loadSidecar(seg, replay) {
				s.segs[id] = seg
				s.nextID = id + 1
				continue
			}
			// A sealed segment should always absorb from its sidecar;
			// reaching the replay path means the sidecar was missing,
			// stale or corrupt.
			opts.Tracer.Emit(trace.SevError, trace.SidecarDegrade, seg.size,
				"segment %s: sidecar missing or corrupt; fully replaying %d bytes", seg.path, seg.size)
		}
		if err := s.scanSegment(seg, replay, mayBeTorn); err != nil {
			seg.retire(false)
			s.closeAll()
			return nil, err
		}
		s.segsReplayed++
		if !last {
			replayed = append(replayed, seg)
		}
		s.segs[id] = seg
		s.nextID = id + 1
	}
	s.resolveReplay(replay)
	// Reuse the newest segment for appends if it has room, else start a
	// fresh one lazily on first append.
	if len(ids) > 0 {
		last := s.segs[ids[len(ids)-1]]
		if last.size < opts.SegmentSize {
			s.active = last
		} else {
			replayed = append(replayed, last) // stays sealed: index it
		}
	}
	for _, seg := range replayed {
		if err := s.waitSealLocked(); err != nil {
			s.closeAll()
			return nil, err
		}
		s.sealLocked(seg)
	}
	s.wg.Add(1)
	go s.compactLoop()
	return s, nil
}

// readSidecar returns segment id's sidecar and its file size, or nil
// when it has none that decodes as that segment's.
func readSidecar(dir string, id uint64) (*sidecar, int) {
	buf, err := os.ReadFile(sidecarPath(dir, id))
	if err != nil {
		return nil, 0
	}
	if sc, err := decodeSidecar(buf); err == nil && sc.id == id {
		return sc, len(buf)
	}
	return nil, 0
}

// loadSidecar tries to absorb a sealed segment from its index sidecar,
// feeding the entries into the replay state. It reports success; any
// failure (no sidecar, torn or checksum-corrupt file, or a sidecar that
// does not describe the segment file's exact byte count — the footprint
// of a segment that was appended to after the sidecar was written) means
// the caller must fully replay the segment.
func (s *Store) loadSidecar(seg *segment, rp *replayState) bool {
	sc, n := readSidecar(s.opts.Dir, seg.id)
	if sc == nil {
		return false
	}
	fi, err := seg.f.Stat()
	if err != nil || fi.Size() != sc.dataSize {
		return false
	}
	seg.size = sc.dataSize
	for _, p := range sc.puts {
		pk := pageKey{writeKey{p.blob, p.write}, p.rel}
		if p.seq > rp.putSeq[pk] {
			rp.puts[pk] = loc{seg: seg, off: p.off, size: p.size}
			rp.putSeq[pk] = p.seq
		}
	}
	for _, d := range sc.delPages {
		pk := pageKey{writeKey{d.blob, d.write}, d.rel}
		if d.seq > rp.delPage[pk] {
			rp.delPage[pk] = d.seq
		}
	}
	for _, d := range sc.delWrites {
		k := writeKey{d.blob, d.write}
		if d.seq > rp.delWrite[k] {
			rp.delWrite[k] = d.seq
		}
	}
	if sc.maxSeq > rp.maxSeq {
		rp.maxSeq = sc.maxSeq
	}
	s.sidecarBytes += int64(n)
	s.sidecarsLoaded++
	return true
}

// syncFile is the fsync behind every durability point of the store.
// Tests swap it to hold or fail a sync; it is a seam, not an option.
var syncFile = (*os.File).Sync

// sealJob is one background seal. err is set before done is closed.
type sealJob struct {
	done chan struct{}
	err  error
}

// sealLocked seals seg — it takes no further records — and starts its
// background seal. Under the lock it only builds the index sidecar from
// the segment's accumulated entries (no segment bytes are re-read). A
// tracked goroutine then fsyncs the segment and only then writes the
// sidecar, so a sidecar never describes records the file could still
// lose. The goroutine pins the segment, so a release that unlinks it
// (and its sidecar) comes after the sidecar write. A failed fsync writes
// no sidecar, so the segment replays on the next open, and
// waitSealLocked reports it; a failed sidecar write only logs, since
// sidecars are an acceleration.
//
// The caller has waited out the previous seal with waitSealLocked and
// holds mu (or owns the store exclusively during Open).
func (s *Store) sealLocked(seg *segment) {
	sc := seg.idx
	if sc == nil {
		if seg.size > 0 {
			// A non-empty segment with no accumulator is a caller bug
			// (already-sealed segment, or a second seal). Writing an
			// empty-but-valid sidecar here would make the next Open
			// absorb the segment as empty — silent data loss. Refuse;
			// worst case the segment is replayed on restart.
			log.Printf("diskstore: refusing sidecar for %s: no accumulated entries for %d data bytes", seg.path, seg.size)
			return
		}
		sc = &sidecar{id: seg.id}
	}
	seg.idx = nil // sealed: no further records; entries move to the file
	sc.dataSize = seg.size
	data := sc.encode()
	dir := s.opts.Dir
	job := &sealJob{done: make(chan struct{})}
	s.sealing = job
	seg.acquire()
	s.wg.Add(1)
	go pprof.Do(context.Background(), pprof.Labels("diskstore", "seal"), func(context.Context) {
		defer s.wg.Done()
		defer close(job.done)
		defer seg.release()
		if err := syncFile(seg.f); err != nil {
			job.err = fmt.Errorf("diskstore: seal %s: %w", seg.path, err)
			return
		}
		if err := writeSidecarBytes(dir, seg.id, data); err != nil {
			log.Printf("diskstore: sidecar for %s: %v (segment will be replayed on restart)", seg.path, err)
		}
	})
}

// waitSealLocked waits for the seal in flight, if any, and returns its
// error once: the next caller to wait sees nil. It is how a roll keeps
// the seal depth at one, and how a caller that must have a sealing
// segment's records durable (a Sync put, compaction) gets them so.
// Caller holds mu; the seal goroutine never takes it.
func (s *Store) waitSealLocked() error {
	job := s.sealing
	if job == nil {
		return nil
	}
	<-job.done
	s.sealing = nil
	return job.err
}

// listSegmentIDs returns the ids of all segment files in dir, ascending.
func listSegmentIDs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// pageKey identifies one page during the recovery replay.
type pageKey struct {
	k   writeKey
	rel uint32
}

// replayState accumulates the recovery scan. Records carry store-wide
// sequence numbers, so the scan just collects the highest-seq put and
// tombstone per page and resolves liveness afterwards — file positions
// (which compaction rearranges) carry no meaning.
type replayState struct {
	puts     map[pageKey]loc    // highest-seq put per page
	putSeq   map[pageKey]uint64 // its sequence number
	delPage  map[pageKey]uint64 // highest per-page tombstone seq
	delWrite map[writeKey]uint64
	maxSeq   uint64
}

func newReplayState() *replayState {
	return &replayState{
		puts:     make(map[pageKey]loc),
		putSeq:   make(map[pageKey]uint64),
		delPage:  make(map[pageKey]uint64),
		delWrite: make(map[writeKey]uint64),
	}
}

// scanSegment feeds one segment into the replay state. A corrupt record
// in a segment that mayBeTorn — the newest, or the one below it, whose
// seal a crash can interrupt — is a torn tail, the footprint of a crash
// mid-append, and is truncated away, keeping every record before it.
// Every older segment was fsynced before the next roll completed, so
// corruption there is bit rot, not a crash: silently dropping the
// records after it would lose healthy pages and resurrect tombstoned
// ones, so Open fails loudly instead and leaves the file for the
// operator. Called only from Open, before the store is shared.
func (s *Store) scanSegment(seg *segment, rp *replayState, mayBeTorn bool) error {
	buf, err := os.ReadFile(seg.path)
	if err != nil {
		return err
	}
	s.replayedBytes += int64(len(buf))
	off := int64(0)
	for off < int64(len(buf)) {
		rec, n, err := decodeRecord(buf[off:])
		if err != nil {
			if !mayBeTorn {
				return fmt.Errorf("diskstore: sealed segment %s corrupt at offset %d: %w", seg.path, off, err)
			}
			// Torn or corrupt tail: keep the valid prefix, drop the rest.
			s.truncated += int64(len(buf)) - off
			if err := seg.f.Truncate(off); err != nil {
				return fmt.Errorf("diskstore: truncate %s at %d: %w", seg.path, off, err)
			}
			break
		}
		if rec.seq > rp.maxSeq {
			rp.maxSeq = rec.seq
		}
		seg.noteRecord(rec.meta(), off, int64(n))
		k := writeKey{rec.blob, rec.write}
		switch rec.op {
		case opPut:
			pk := pageKey{k, rec.rel}
			if rec.seq > rp.putSeq[pk] {
				rp.puts[pk] = loc{seg: seg, off: off, size: int64(n)}
				rp.putSeq[pk] = rec.seq
			}
		case opDelPages:
			for _, rel := range rec.rels {
				pk := pageKey{k, rel}
				if rec.seq > rp.delPage[pk] {
					rp.delPage[pk] = rec.seq
				}
			}
		case opDelWrite:
			if rec.seq > rp.delWrite[k] {
				rp.delWrite[k] = rec.seq
			}
		}
		off += int64(n)
	}
	seg.size = off
	return nil
}

// resolveReplay turns the scanned replay state into the live index: a
// page is live iff its newest put outlives every tombstone covering it.
func (s *Store) resolveReplay(rp *replayState) {
	for pk, l := range rp.puts {
		seq := rp.putSeq[pk]
		if seq <= rp.delWrite[pk.k] || seq <= rp.delPage[pk] {
			continue
		}
		wm := s.index[pk.k]
		if wm == nil {
			wm = make(map[uint32]loc)
			s.index[pk.k] = wm
		}
		wm[pk.rel] = l
		l.seg.live += l.size
		s.pageCount++
		s.pageBytes += l.dataLen()
	}
	if rp.maxSeq >= s.nextSeq {
		s.nextSeq = rp.maxSeq + 1
	}
}

// dropPage removes one page from the index, crediting its segment's dead
// bytes. The caller holds the writer lock (or is the startup scan).
func (s *Store) dropPage(wm map[uint32]loc, k writeKey, rel uint32) bool {
	l, ok := wm[rel]
	if !ok {
		return false
	}
	delete(wm, rel)
	if len(wm) == 0 {
		delete(s.index, k)
	}
	l.seg.live -= l.size
	s.pageCount--
	s.pageBytes -= l.dataLen()
	return true
}

// PutPages appends a batch of pages, returning how many were genuinely
// new. Re-putting an existing page is idempotent (first wins), which
// makes client retries after partial failures safe — the duplicate
// bytes are never written and don't count against Capacity. Pages
// larger than MaxPageSize are rejected: their records could not be
// decoded again, so persisting one would read as a torn tail on
// recovery.
func (s *Store) PutPages(pages []Page) (int, error) {
	for _, p := range pages {
		if len(p.Data) > MaxPageSize {
			return 0, fmt.Errorf("diskstore: page (%d,%d,%d) is %d bytes, max %d",
				p.Blob, p.Write, p.Rel, len(p.Data), MaxPageSize)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	fresh := make([]Page, 0, len(pages))
	inBatch := make(map[pageKey]bool, len(pages))
	var newBytes int64
	for _, p := range pages {
		pk := pageKey{writeKey{p.Blob, p.Write}, p.Rel}
		if inBatch[pk] {
			continue
		}
		if _, exists := s.index[pk.k][p.Rel]; exists {
			continue
		}
		inBatch[pk] = true
		fresh = append(fresh, p)
		newBytes += int64(len(p.Data))
	}
	if s.opts.Capacity > 0 && s.pageBytes+newBytes > s.opts.Capacity {
		return 0, fmt.Errorf("%w: %d live + %d new > %d",
			ErrCapacity, s.pageBytes, newBytes, s.opts.Capacity)
	}
	if err := s.appendPutsLocked(fresh); err != nil {
		return 0, err
	}
	if s.opts.Sync && s.active != nil && len(fresh) > 0 {
		// The batch may have spilled out of a segment still sealing.
		if err := s.waitSealLocked(); err != nil {
			return len(fresh), err
		}
		if err := syncFile(s.active.f); err != nil {
			return len(fresh), err
		}
	}
	return len(fresh), nil
}

// Page is one page upload unit.
type Page struct {
	Blob  uint64
	Write uint64
	Rel   uint32
	Data  []byte
}

// takeSeq allocates the next record sequence number. Caller holds mu.
func (s *Store) takeSeq() uint64 {
	seq := s.nextSeq
	s.nextSeq++
	return seq
}

// maxRetainedBatch caps the encode buffer PutPages keeps between
// batches; a rare larger batch allocates its buffer and drops it.
const maxRetainedBatch = 8 << 20

// appendPutsLocked appends one put record per page. The records are
// encoded back to back into the store's reusable batch buffer and
// written with one WriteAt per segment the batch touches; a run ends
// where the per-record rule of appendLocked would have rolled, so the
// segment layout is the one record-at-a-time appends produce. A run's
// pages enter the index only after its write succeeded. Caller holds mu.
func (s *Store) appendPutsLocked(pages []Page) error {
	for len(pages) > 0 {
		seg, err := s.activeLocked(putRecordSize(pages[0]))
		if err != nil {
			return err
		}
		buf := s.batch[:0]
		n := 0 // records in this run; they take sequence numbers nextSeq..nextSeq+n-1
		for n < len(pages) && s.fits(seg, seg.size+int64(len(buf)), putRecordSize(pages[n])) {
			p := pages[n]
			buf = appendPutRecord(buf, s.nextSeq+uint64(n), p.Blob, p.Write, p.Rel, p.Data)
			n++
		}
		if cap(buf) <= maxRetainedBatch {
			s.batch = buf
		}
		if _, err := seg.f.WriteAt(buf, seg.size); err != nil {
			return fmt.Errorf("diskstore: append to %s: %w", seg.path, err)
		}
		for _, p := range pages[:n] {
			l := loc{seg: seg, off: seg.size, size: putRecordSize(p)}
			seg.size += l.size
			seg.noteRecord(recMeta{op: opPut, seq: s.takeSeq(), blob: p.Blob, write: p.Write, rel: p.Rel}, l.off, l.size)
			k := writeKey{p.Blob, p.Write}
			wm := s.index[k]
			if wm == nil {
				wm = make(map[uint32]loc)
				s.index[k] = wm
			}
			wm[p.Rel] = l
			seg.live += l.size
			s.pageCount++
			s.pageBytes += int64(len(p.Data))
		}
		pages = pages[n:]
	}
	return nil
}

func putRecordSize(p Page) int64 { return int64(recHeaderSize + putBodyPrefix + len(p.Data)) }

// fits reports whether a record of n bytes may be appended to seg at
// off: the segment is still below SegmentSize and the record ends
// inside its mapping. A record of at most SegmentSize that starts below
// SegmentSize always ends inside the 2 × SegmentSize mapping.
func (s *Store) fits(seg *segment, off, n int64) bool {
	return off < s.opts.SegmentSize && off+n <= int64(len(seg.data))
}

// activeLocked returns the segment the next record, of n bytes, goes
// to, rolling to a fresh one first if it does not fit the active
// segment. Caller holds mu.
func (s *Store) activeLocked(n int64) (*segment, error) {
	if s.active == nil || !s.fits(s.active, s.active.size, n) {
		if err := s.rollLocked(n); err != nil {
			return nil, err
		}
	}
	return s.active, nil
}

// appendLocked writes one encoded record (a tombstone, or a record the
// compactor relocates verbatim) to the active segment and feeds it into
// the segment's sidecar accumulator. Caller holds mu.
func (s *Store) appendLocked(buf []byte, m recMeta) (loc, error) {
	seg, err := s.activeLocked(int64(len(buf)))
	if err != nil {
		return loc{}, err
	}
	off := seg.size
	if _, err := seg.f.WriteAt(buf, off); err != nil {
		return loc{}, fmt.Errorf("diskstore: append to %s: %w", seg.path, err)
	}
	seg.size += int64(len(buf))
	seg.noteRecord(m, off, int64(len(buf)))
	return loc{seg: seg, off: off, size: int64(len(buf))}, nil
}

// rollLocked opens a fresh active segment, mapped over 2 × SegmentSize
// or over a first record of n bytes if it is longer, and hands the old
// one to the background sealer. It first waits out the previous seal,
// so at most the newest two segments are ever unsynced — the sealing
// one and the active one — and it fails with that seal's error if its
// fsync failed.
func (s *Store) rollLocked(n int64) error {
	if err := s.waitSealLocked(); err != nil {
		return err
	}
	seg, err := openSegment(s.opts.Dir, s.nextID, max(2*s.opts.SegmentSize, n))
	if err != nil {
		return err
	}
	if s.active != nil {
		s.sealLocked(s.active)
	}
	s.nextID++
	s.segs[seg.id] = seg
	s.active = seg
	return nil
}

// GetPage returns a copy of one page's bytes, or false if absent: the
// bytes ReadPage verified, copied out of the mapping into memory the
// caller owns.
func (s *Store) GetPage(blob, write uint64, rel uint32) ([]byte, bool) {
	data, pin, ok := s.ReadPage(blob, write, rel)
	if !ok {
		return nil, false
	}
	defer pin.Release()
	out := make([]byte, len(data))
	if !readMapped(func() { copy(out, data) }) {
		return nil, false
	}
	return out, true
}

// ReadPage is the store's one page read: it resolves the page in the
// index, pins its segment, verifies the record checksum where the
// record lies in the segment's mapping, and returns the page bytes in
// place. They alias the read-only mapping and stay valid until pin is
// released, which the caller must do exactly once (a provider hands the
// pin to the rpc server, which releases it once the response is
// flushed). A record whose checksum no longer matches (disk corruption)
// or whose mapped pages fault is reported as absent — bad bytes are
// never served — and an absent page leaves nothing to release.
func (s *Store) ReadPage(blob, write uint64, rel uint32) (data []byte, pin *Pin, ok bool) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, nil, false
	}
	l, ok := s.index[writeKey{blob, write}][rel]
	if !ok {
		s.mu.RUnlock()
		return nil, nil, false
	}
	l.seg.acquire()
	s.mu.RUnlock()
	if data, ok = l.seg.readPut(l.off, l.size); !ok {
		l.seg.release()
		return nil, nil, false
	}
	return data, l.seg.pin(), true
}

// DeletePages removes specific pages of a write, returning how many were
// present. The deletion is durable: a tombstone record is appended so
// recovery replays it.
func (s *Store) DeletePages(blob, write uint64, rels []uint32) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	k := writeKey{blob, write}
	wm := s.index[k]
	present := rels[:0:0]
	for _, rel := range rels {
		if _, ok := wm[rel]; ok {
			present = append(present, rel)
		}
	}
	if len(present) == 0 {
		return 0, nil
	}
	seq := s.takeSeq()
	if _, err := s.appendLocked(appendDelPagesRecord(nil, seq, blob, write, present),
		recMeta{op: opDelPages, seq: seq, blob: blob, write: write, rels: present}); err != nil {
		return 0, err
	}
	for _, rel := range present {
		s.dropPage(wm, k, rel)
	}
	return len(present), nil
}

// DeleteWrite removes every page of (blob, write), returning how many
// pages were freed.
func (s *Store) DeleteWrite(blob, write uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	k := writeKey{blob, write}
	wm := s.index[k]
	if len(wm) == 0 {
		return 0, nil
	}
	seq := s.takeSeq()
	if _, err := s.appendLocked(appendDelWriteRecord(nil, seq, blob, write),
		recMeta{op: opDelWrite, seq: seq, blob: blob, write: write}); err != nil {
		return 0, err
	}
	n := 0
	for rel := range wm {
		if s.dropPage(wm, k, rel) {
			n++
		}
	}
	return n, nil
}

// ForEachPage visits every live page. The data slice is a private copy.
// Iteration order is unspecified. Pages put or deleted concurrently may
// or may not be visited.
func (s *Store) ForEachPage(fn func(blob, write uint64, rel uint32, data []byte)) {
	type entry struct {
		k   writeKey
		rel uint32
	}
	s.mu.RLock()
	entries := make([]entry, 0, s.pageCount)
	for k, wm := range s.index {
		for rel := range wm {
			entries = append(entries, entry{k, rel})
		}
	}
	s.mu.RUnlock()
	for _, e := range entries {
		if data, ok := s.GetPage(e.k.blob, e.k.write, e.rel); ok {
			fn(e.k.blob, e.k.write, e.rel, data)
		}
	}
}

// Rels returns the rels of (blob, write) holding a live page,
// ascending. It reads only the in-memory index, never segment data.
func (s *Store) Rels(blob, write uint64) []uint32 {
	s.mu.RLock()
	rels := slices.Collect(maps.Keys(s.index[writeKey{blob, write}]))
	s.mu.RUnlock()
	slices.Sort(rels)
	return rels
}

// Stats returns a usage snapshot.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Pages:            s.pageCount,
		PageBytes:        s.pageBytes,
		Segments:         int64(len(s.segs)),
		Compactions:      s.compactions,
		TruncatedBytes:   s.truncated,
		ReplayedBytes:    s.replayedBytes,
		SidecarBytes:     s.sidecarBytes,
		SegmentsReplayed: s.segsReplayed,
		SidecarsLoaded:   s.sidecarsLoaded,
	}
	for _, seg := range s.segs {
		st.DiskBytes += seg.size
		st.LiveBytes += seg.live
	}
	return st
}

// Close stops the compactor, fsyncs the active segment, waits for the
// seal in flight and closes every segment file; a segment still pinned
// stays mapped until its last pin is released. It reports a failed
// fsync, the seal's included. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	var err error
	if s.active != nil {
		err = syncFile(s.active.f)
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	if serr := s.waitSealLocked(); err == nil {
		err = serr
	}
	s.closeAll()
	s.mu.Unlock()
	return err
}

// closeAll drops the store's reference on every segment. Caller holds mu
// (or owns the store exclusively during a failed Open).
func (s *Store) closeAll() {
	for _, seg := range s.segs {
		seg.retire(false)
	}
	s.segs = map[uint64]*segment{}
	s.active = nil
}
