package provider

import (
	"context"
	"errors"
	"fmt"

	"blob/internal/wire"
)

// Provider-to-provider repair protocol (normative spec:
// docs/replication.md). Two RPCs let a replica set heal itself without
// client involvement: MListWrites enumerates a provider's holdings per
// (blob, write) and piggybacks a bloom digest of its page keys, so a
// peer (or the repair agent driving it) can decide what is missing
// without transferring page lists; MPullPages then instructs the
// degraded provider to fetch the missing pages directly from a named
// healthy peer and store them locally. First-wins idempotent puts make
// every repair action safe to over-approximate and to retry.

// ErrRepairDisabled is returned by MPullPages on a provider whose
// service was not given a peer connection pool (one built by NewService
// rather than Open).
var ErrRepairDisabled = errors.New("provider: repair not enabled (no peer pool)")

// Digest is a conservative bloom summary of the page keys a provider
// may hold: MightContain returning false means the provider definitely
// held no live page under that key when the digest was taken; true
// means it may (live page, dead-but-unreclaimed record, or a bloom
// false positive). A digest is a point-in-time snapshot — consumers
// must tolerate staleness and never treat "might contain" as presence.
type Digest struct {
	// Filters are checked as a union: a key might be held if any filter
	// says so. The diskstore backend exports one filter per segment (the
	// same filters its index sidecars persist); the RAM Store exports one
	// filter over its whole index. Zero filters = holds nothing.
	Filters []*wire.Bloom
}

// MightContain reports whether the digested store may hold the page.
func (d Digest) MightContain(blob, write uint64, rel uint32) bool {
	for _, f := range d.Filters {
		if f.MightContain(blob, write, rel) {
			return true
		}
	}
	return false
}

// Encode appends the digest's wire form: uvarint filter count, then
// each filter in the layout of docs/diskstore-format.md §4.
func (d Digest) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(d.Filters)))
	for _, f := range d.Filters {
		f.Encode(w)
	}
}

// DecodeDigest reads a digest written by Encode. A structural defect
// poisons the reader and returns an empty digest.
func DecodeDigest(r *wire.Reader) Digest {
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(r.Remaining())/8 {
		return Digest{}
	}
	fs := make([]*wire.Bloom, 0, n)
	for i := uint64(0); i < n; i++ {
		b := wire.DecodeBloom(r)
		if b == nil {
			return Digest{}
		}
		fs = append(fs, b)
	}
	return Digest{Filters: fs}
}

// WriteRef identifies one write on one blob.
type WriteRef struct {
	Blob  uint64
	Write uint64
}

// WriteHolding is one write a provider holds pages for.
type WriteHolding struct {
	Blob  uint64
	Write uint64
	Pages int64 // live pages held for this write
}

// Holdings is a decoded MListWrites response.
type Holdings struct {
	Writes []WriteHolding
	Digest Digest
}

// Holds returns the live page count for (blob, write), or 0.
func (h Holdings) Holds(blob, write uint64) int64 {
	for _, w := range h.Writes {
		if w.Blob == blob && w.Write == write {
			return w.Pages
		}
	}
	return 0
}

// EncodeListWrites builds an MListWrites request. An empty refs list
// asks for every write the provider holds.
func EncodeListWrites(refs []WriteRef) []byte {
	w := wire.NewWriter(4 + 16*len(refs))
	w.Uvarint(uint64(len(refs)))
	for _, ref := range refs {
		w.Uint64(ref.Blob)
		w.Uint64(ref.Write)
	}
	return w.Bytes()
}

// DecodeListWrites parses an MListWrites response.
func DecodeListWrites(body []byte) (Holdings, error) {
	r := wire.NewReader(body)
	n := r.Uvarint()
	if n > uint64(r.Remaining())/17 { // each entry ≥ 17 bytes
		return Holdings{}, fmt.Errorf("provider: holdings count %d exceeds body", n)
	}
	h := Holdings{Writes: make([]WriteHolding, 0, n)}
	for i := uint64(0); i < n; i++ {
		h.Writes = append(h.Writes, WriteHolding{
			Blob:  r.Uint64(),
			Write: r.Uint64(),
			Pages: int64(r.Uvarint()),
		})
	}
	h.Digest = DecodeDigest(r)
	return h, r.Err()
}

// PullRef is one page MPullPages should fetch, with the checksum the
// metadata leaf records for it (the puller verifies before storing).
type PullRef struct {
	Rel      uint32
	Checksum uint64
}

// EncodePullPages builds an MPullPages request: pull the listed pages of
// (blob, write) from the provider at peer and store them locally.
func EncodePullPages(peer string, blob, write uint64, refs []PullRef) []byte {
	w := wire.NewWriter(24 + len(peer) + 12*len(refs))
	w.String(peer)
	w.Uint64(blob)
	w.Uint64(write)
	w.Uvarint(uint64(len(refs)))
	for _, ref := range refs {
		w.Uint32(ref.Rel)
		w.Uint64(ref.Checksum)
	}
	return w.Bytes()
}

// PullResult is a decoded MPullPages response.
type PullResult struct {
	// Pulled pages were fetched from the peer and stored; Bytes counts
	// their payload. Skipped pages were already held locally and cost no
	// transfer. Pulled+Skipped < requested means the peer lacked pages
	// or served bytes failing the checksum — the caller should retry
	// against a different peer.
	Pulled  int64
	Bytes   int64
	Skipped int64
}

// DecodePullPages parses an MPullPages response.
func DecodePullPages(body []byte) (PullResult, error) {
	r := wire.NewReader(body)
	res := PullResult{
		Pulled:  int64(r.Uvarint()),
		Bytes:   int64(r.Uvarint()),
		Skipped: int64(r.Uvarint()),
	}
	return res, r.Err()
}

// Caller is the slice of rpc.Pool the pull handler needs; an interface
// so tests can fake a peer.
type Caller interface {
	Call(ctx context.Context, addr string, method uint32, body []byte) ([]byte, error)
}

// Wire formats (normative byte-level spec in docs/replication.md §4):
//
//	MListWrites request:  uvarint n | n × (u64 blob, u64 write)   (n = 0: all)
//	MListWrites response: uvarint m | m × (u64 blob, u64 write, uvarint pages)
//	                      | digest
//	MPullPages request:   string peer | u64 blob | u64 write
//	                      | uvarint n | n × (u32 rel, u64 checksum)
//	MPullPages response:  uvarint pulled | uvarint bytes | uvarint skipped

func (sv *Service) handleListWrites(ctx context.Context, body []byte) ([]byte, error) {
	sv.ActiveOps.Add(1)
	defer sv.ActiveOps.Add(-1)
	// Chaos mode covers the whole read-side serve path, holdings
	// listings included — so an injected gray failure is visible to the
	// repairer's sweeps (and trips its breakers), not only to clients
	// fetching pages.
	if err := sv.chaosEnter(ctx); err != nil {
		return nil, err
	}
	r := wire.NewReader(body)
	n := r.Uvarint()
	// Each ref occupies exactly 16 request bytes: reject a count the body
	// cannot hold before sizing the set.
	if n > uint64(r.Remaining())/16 {
		return nil, fmt.Errorf("provider list writes: request count %d exceeds body", n)
	}
	var want map[WriteRef]bool
	if n > 0 {
		want = make(map[WriteRef]bool, n)
		for i := uint64(0); i < n; i++ {
			want[WriteRef{Blob: r.Uint64(), Write: r.Uint64()}] = true
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("provider list writes: %w", err)
	}

	var holdings []WriteHolding
	sv.store.ForEachWrite(func(blob, write uint64, pages int) {
		if want != nil && !want[WriteRef{Blob: blob, Write: write}] {
			return
		}
		holdings = append(holdings, WriteHolding{Blob: blob, Write: write, Pages: int64(pages)})
	})

	w := wire.NewWriter(64 + 24*len(holdings))
	w.Uvarint(uint64(len(holdings)))
	for _, h := range holdings {
		w.Uint64(h.Blob)
		w.Uint64(h.Write)
		w.Uvarint(uint64(h.Pages))
	}
	sv.store.BloomDigest().Encode(w)
	return w.Bytes(), nil
}

func (sv *Service) handlePullPages(ctx context.Context, body []byte) ([]byte, error) {
	sv.ActiveOps.Add(1)
	defer sv.ActiveOps.Add(-1)
	r := wire.NewReader(body)
	peer := r.String()
	blob := r.Uint64()
	write := r.Uint64()
	n := r.Uvarint()
	// Each ref occupies exactly 12 request bytes: reject a count the body
	// cannot hold before sizing the list.
	if n > uint64(r.Remaining())/12 {
		return nil, fmt.Errorf("provider pull: request count %d exceeds body", n)
	}
	refs := make([]PullRef, 0, n)
	for i := uint64(0); i < n; i++ {
		refs = append(refs, PullRef{Rel: r.Uint32(), Checksum: r.Uint64()})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("provider pull: %w", err)
	}
	if sv.peers == nil {
		return nil, ErrRepairDisabled
	}

	// Drop pages already held (exact local probe), so a re-driven repair
	// of a healthy provider transfers nothing and duplicate pulls from
	// racing repairers are free.
	var need []PullRef
	var skipped int64
	for _, ref := range refs {
		if _, ok := sv.store.GetPage(blob, write, ref.Rel); ok {
			skipped++
			sv.bloomSkips.Inc()
			continue
		}
		need = append(need, ref)
	}

	var pulled, bytes int64
	if len(need) > 0 {
		get := make([]PageRef, len(need))
		for i, ref := range need {
			get[i] = PageRef{Blob: blob, Write: write, RelPage: ref.Rel}
		}
		resp, err := sv.peers.Call(ctx, peer, MGetPages, EncodeGetPages(get))
		if err != nil {
			return nil, fmt.Errorf("provider pull from %s: %w", peer, err)
		}
		datas, err := DecodeGetPages(resp, len(get))
		if err != nil {
			return nil, err
		}
		var pages []Page
		for i, data := range datas {
			if data == nil || wire.Checksum64(data) != need[i].Checksum {
				continue // peer lacks it or served bad bytes: not repairable here
			}
			pages = append(pages, Page{Blob: blob, Write: write, RelPage: need[i].Rel, Data: data})
			bytes += int64(len(data))
		}
		if len(pages) > 0 {
			if err := sv.store.PutPages(pages); err != nil {
				return nil, fmt.Errorf("provider pull store: %w", err)
			}
			pulled = int64(len(pages))
			sv.repairedPages.Add(pulled)
			sv.repairBytes.Add(bytes)
		}
	}

	w := wire.NewWriter(24)
	w.Uvarint(uint64(pulled))
	w.Uvarint(uint64(bytes))
	w.Uvarint(uint64(skipped))
	return w.Bytes(), nil
}
