package provider

import (
	"context"
	"fmt"
	"math"
	"slices"

	"blob/internal/wire"
)

// The provider's half of repair (docs/erasure.md §5): MListWrites
// answers, for each (blob, write) asked about, exactly which pages the
// provider holds, read from its index, so the repair agent can compare
// them with the slots the metadata places there. The agent rebuilds a
// missing slot from its stripe's survivors and pushes it back with an
// ordinary MPutPages, whose first-wins idempotent puts make every repair
// action safe to over-approximate and to retry.

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

// Wire format (normative byte-level spec in docs/erasure.md §5):
//
//	MListWrites request:  uvarint n | n × (u64 blob, u64 write)
//	MListWrites response: uvarint m | m × (u64 blob, u64 write, uvarint c,
//	                      c × uvarint Δrel)

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
