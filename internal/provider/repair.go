package provider

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"blob/internal/wire"
)

// Provider-to-provider repair protocol (normative spec:
// docs/replication.md). Two RPCs let a replica set heal itself without
// client involvement: MListWrites answers, for each (blob, write) asked
// about, exactly which pages the provider holds, read from its index, so
// the repair agent driving it can compare them with what the metadata
// places there; MPullPages then instructs the degraded provider to fetch
// the missing pages directly from a named healthy peer and store them
// locally. First-wins idempotent puts make every repair action safe to
// over-approximate and to retry.

// ErrRepairDisabled is returned by MPullPages on a provider whose
// service was not given a peer connection pool (one built by NewService
// rather than Open).
var ErrRepairDisabled = errors.New("provider: repair not enabled (no peer pool)")

// WriteRef identifies one write on one blob.
type WriteRef struct {
	Blob  uint64
	Write uint64
}

// Holdings is a decoded MListWrites response: for each requested write,
// the rels the provider holds live, ascending.
type Holdings map[WriteRef][]uint32

// Has reports whether the provider listed page rel of (blob, write).
func (h Holdings) Has(blob, write uint64, rel uint32) bool {
	_, ok := slices.BinarySearch(h[WriteRef{Blob: blob, Write: write}], rel)
	return ok
}

// EncodeListWrites builds an MListWrites request for the listed writes.
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
	m := r.Count(17) // u64 blob, u64 write, uvarint count
	h := make(Holdings, m)
	for i := 0; i < m && r.Err() == nil; i++ {
		ref := WriteRef{Blob: r.Uint64(), Write: r.Uint64()}
		rels := make([]uint32, r.Count(1))
		var rel uint64
		for j := range rels {
			d := r.Uvarint()
			if d > math.MaxUint32-rel {
				return nil, fmt.Errorf("provider: holdings rel %d+%d overflows u32", rel, d)
			}
			rel += d
			rels[j] = uint32(rel)
		}
		h[ref] = rels
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("provider: holdings: %w", err)
	}
	return h, nil
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

// Wire formats (normative byte-level spec in docs/replication.md §3):
//
//	MListWrites request:  uvarint n | n × (u64 blob, u64 write)
//	MListWrites response: uvarint m | m × (u64 blob, u64 write, uvarint c,
//	                      c × uvarint Δrel)
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
	n := r.Count(16)
	refs := make([]WriteRef, 0, n)
	seen := make(map[WriteRef]bool, n)
	for i := 0; i < n; i++ {
		ref := WriteRef{Blob: r.Uint64(), Write: r.Uint64()}
		if !seen[ref] {
			seen[ref] = true
			refs = append(refs, ref)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("provider list writes: %w", err)
	}

	w := wire.NewWriter(64 + 24*len(refs))
	w.Uvarint(uint64(len(refs)))
	for _, ref := range refs {
		rels := sv.store.Rels(ref.Blob, ref.Write)
		w.Uint64(ref.Blob)
		w.Uint64(ref.Write)
		w.Uvarint(uint64(len(rels)))
		prev := uint32(0)
		for _, rel := range rels {
			w.Uvarint(uint64(rel - prev))
			prev = rel
		}
	}
	return w.Bytes(), nil
}

func (sv *Service) handlePullPages(ctx context.Context, body []byte) ([]byte, error) {
	sv.ActiveOps.Add(1)
	defer sv.ActiveOps.Add(-1)
	r := wire.NewReader(body)
	peer := r.String()
	blob := r.Uint64()
	write := r.Uint64()
	n := r.Count(12) // rel + checksum
	refs := make([]PullRef, 0, n)
	for i := 0; i < n; i++ {
		refs = append(refs, PullRef{Rel: r.Uint32(), Checksum: r.Uint64()})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("provider pull: %w", err)
	}
	if sv.peers == nil {
		return nil, ErrRepairDisabled
	}

	// Drop pages already held, read from the index as MListWrites answers
	// (no page data is touched), so a re-driven repair of a healthy
	// provider transfers nothing and duplicate pulls from racing
	// repairers are free.
	held := sv.store.Rels(blob, write)
	var need []PullRef
	var skipped int64
	for _, ref := range refs {
		if _, ok := slices.BinarySearch(held, ref.Rel); ok {
			skipped++
			sv.pullSkips.Inc()
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
