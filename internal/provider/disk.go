package provider

import (
	"errors"
	"log"

	"blob/internal/diskstore"
	"blob/internal/rpc"
	"blob/internal/stats"
)

// DiskStore is the persistent PageStore backend: a thin adapter over
// internal/diskstore's crash-recoverable segment log. Capacity is
// enforced by the diskstore on live page payload bytes — the same
// accounting the RAM store uses — so the load balancer's view is
// backend-agnostic; the extra disk occupied by dead records and
// tombstones shows up in the Stats disk fields and shrinks as the
// compactor runs.
type DiskStore struct {
	ds       *diskstore.Store
	capacity int64

	Puts   stats.Counter
	Gets   stats.Counter
	Misses stats.Counter
}

// NewDiskStore opens (or recovers) a persistent store in opts.Dir,
// bounded by capacity live bytes (0 = unlimited; overrides
// opts.Capacity).
func NewDiskStore(opts diskstore.Options, capacity int64) (*DiskStore, error) {
	opts.Capacity = capacity
	ds, err := diskstore.Open(opts)
	if err != nil {
		return nil, err
	}
	return &DiskStore{ds: ds, capacity: capacity}, nil
}

// PutPages implements PageStore.
func (d *DiskStore) PutPages(pages []Page) error {
	batch := make([]diskstore.Page, len(pages))
	for i, p := range pages {
		batch[i] = diskstore.Page{Blob: p.Blob, Write: p.Write, Rel: p.RelPage, Data: p.Data}
	}
	stored, err := d.ds.PutPages(batch)
	if errors.Is(err, diskstore.ErrCapacity) {
		return ErrFull
	}
	if err != nil {
		return err
	}
	d.Puts.Add(int64(stored))
	return nil
}

// GetPage implements PageStore; the returned slice is a copy the
// caller owns.
func (d *DiskStore) GetPage(blob, write uint64, rel uint32) ([]byte, bool) {
	data, ok := d.ds.GetPage(blob, write, rel)
	d.countGet(ok)
	return data, ok
}

// GetPagePinned implements PageStore: the page is verified and returned
// where it lies in its segment's mapping, with the pin that keeps the
// segment mapped.
func (d *DiskStore) GetPagePinned(blob, write uint64, rel uint32) ([]byte, rpc.Releaser, bool) {
	data, pin, ok := d.ds.ReadPage(blob, write, rel)
	d.countGet(ok)
	if !ok {
		return nil, nil, false // not a nil *Pin inside a non-nil Releaser
	}
	return data, pin, true
}

func (d *DiskStore) countGet(ok bool) {
	d.Gets.Inc()
	if !ok {
		d.Misses.Inc()
	}
}

// DeletePages implements PageStore. A failure to append the tombstone
// leaves the pages in place (and logs), so the GC's count stays honest.
func (d *DiskStore) DeletePages(blob, write uint64, rels []uint32) int {
	n, err := d.ds.DeletePages(blob, write, rels)
	if err != nil {
		log.Printf("provider: disk delete pages (%d,%d): %v", blob, write, err)
	}
	return n
}

// DeleteWrite implements PageStore.
func (d *DiskStore) DeleteWrite(blob, write uint64) int {
	n, err := d.ds.DeleteWrite(blob, write)
	if err != nil {
		log.Printf("provider: disk delete write (%d,%d): %v", blob, write, err)
	}
	return n
}

// ForEachPage implements PageStore.
func (d *DiskStore) ForEachPage(fn func(blob, write uint64, rel uint32, data []byte)) {
	d.ds.ForEachPage(fn)
}

// Snapshot implements PageStore.
func (d *DiskStore) Snapshot() Stats {
	ds := d.ds.Stats()
	return Stats{
		BytesUsed: ds.PageBytes,
		PageCount: ds.Pages,
		Capacity:  d.capacity,
		Puts:      d.Puts.Value(),
		Gets:      d.Gets.Value(),
		Misses:    d.Misses.Value(),
		DiskBytes: ds.DiskBytes,
		DiskLive:  ds.LiveBytes,
		Segments:  ds.Segments,

		ReplayedBytes:    ds.ReplayedBytes,
		SidecarBytes:     ds.SidecarBytes,
		SegmentsReplayed: ds.SegmentsReplayed,
		SidecarsLoaded:   ds.SidecarsLoaded,
	}
}

// Rels implements PageStore from the diskstore's in-memory index; no
// segment data is read.
func (d *DiskStore) Rels(blob, write uint64) []uint32 { return d.ds.Rels(blob, write) }

// CompactOnce exposes the underlying compactor for operational tooling
// and tests; the store also compacts in the background once a minute.
func (d *DiskStore) CompactOnce() (bool, error) { return d.ds.CompactOnce() }

// Close fsyncs and closes the underlying segment files.
func (d *DiskStore) Close() error { return d.ds.Close() }
