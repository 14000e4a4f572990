package meta

import (
	"fmt"

	"blob/internal/wire"
)

// LeafData records where one page's bytes physically live. The page is
// keyed on data providers by (blob, Write, RelPage): Write is the
// client-generated write identity (pages are pushed before the version
// number exists — paper §III.B), and RelPage the page's index relative to
// the write's first page. Providers lists the replica provider IDs.
// Checksum is wire.Checksum64 (CRC-32C, zero-extended) of the page
// content, verified on read.
//
// Under rs(k,m) redundancy (docs/erasure.md) Providers holds the single
// provider of the page's data shard and Stripe describes the rest of
// the page's stripe — everything a degraded read or the repair agent
// needs to reconstruct any shard from k survivors without further
// metadata fetches.
type LeafData struct {
	Write     uint64
	RelPage   uint32
	Providers []uint32
	Checksum  uint64
	Stripe    *StripeRef
}

// StripeRef is one stripe's full layout, embedded in each of its data
// leaves (stripe members share a write, so the duplication is a few
// dozen bytes per leaf and keeps reconstruction single-fetch). Slot i
// of [0,K) is the data page at rel FirstRel+i; slot K+j the parity
// page at rel ParityRel0+j. K is the stripe's own width — a short
// final stripe records its actual data count, making every stripe
// self-describing.
type StripeRef struct {
	K, M       uint8
	FirstRel   uint32
	ParityRel0 uint32
	// Provs holds the K+M provider IDs of the stripe's slots; Sums the
	// matching shard checksums (verified on every reconstruction pull).
	Provs []uint32
	Sums  []uint64
}

// SlotRel returns the rel-page of stripe slot i (data then parity).
func (s *StripeRef) SlotRel(i int) uint32 {
	if i < int(s.K) {
		return s.FirstRel + uint32(i)
	}
	return s.ParityRel0 + uint32(i-int(s.K))
}

// SlotOf returns the stripe slot index of a rel-page, or -1.
func (s *StripeRef) SlotOf(rel uint32) int {
	if rel >= s.FirstRel && rel < s.FirstRel+uint32(s.K) {
		return int(rel - s.FirstRel)
	}
	if rel >= s.ParityRel0 && rel < s.ParityRel0+uint32(s.M) {
		return int(s.K) + int(rel-s.ParityRel0)
	}
	return -1
}

// Node is one segment tree node: its key plus either child versions
// (interior) or leaf data. A child version of ZeroVersion denotes the
// implicit all-zero subtree.
type Node struct {
	Key NodeKey

	// Interior fields (Key.Range.Size > 1).
	LeftVer  Version
	RightVer Version

	// Leaf field (Key.Range.Size == 1); nil for interior nodes.
	Leaf *LeafData
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Key.Range.IsLeaf() }

const (
	nodeFlagLeaf   = 1 << 0
	nodeFlagStripe = 1 << 1
)

// Encode serializes the node. The key is embedded in the value so a
// decoder can detect hash collisions or routing mistakes.
func (n *Node) Encode() []byte {
	w := wire.NewWriter(64 + 4*len(nProviders(n)))
	n.EncodeTo(w)
	return w.Bytes()
}

// EncodeTo appends the node's encoding to w, so batched callers
// (mstore.StoreNodes) can pack a whole write's nodes into one shared
// arena instead of allocating an encode buffer per node.
func (n *Node) EncodeTo(w *wire.Writer) {
	w.Uint64(n.Key.Blob)
	w.Uvarint(n.Key.Version)
	w.Uvarint(n.Key.Range.Start)
	w.Uvarint(n.Key.Range.Size)
	if n.Leaf != nil {
		flags := uint8(nodeFlagLeaf)
		if n.Leaf.Stripe != nil {
			flags |= nodeFlagStripe
		}
		w.Uint8(flags)
		w.Uvarint(n.Leaf.Write)
		w.Uvarint(uint64(n.Leaf.RelPage))
		w.Uint64(n.Leaf.Checksum)
		w.Uint32Slice(n.Leaf.Providers)
		if s := n.Leaf.Stripe; s != nil {
			w.Uint8(s.K)
			w.Uint8(s.M)
			w.Uint32(s.FirstRel)
			w.Uint32(s.ParityRel0)
			w.Uint32Slice(s.Provs)
			w.Uint64Slice(s.Sums)
		}
	} else {
		w.Uint8(0)
		w.Uvarint(n.LeftVer)
		w.Uvarint(n.RightVer)
	}
}

func nProviders(n *Node) []uint32 {
	if n.Leaf == nil {
		return nil
	}
	return n.Leaf.Providers
}

// DecodeNode parses a node and verifies it matches the expected key.
func DecodeNode(body []byte, want NodeKey) (*Node, error) {
	r := wire.NewReader(body)
	var n Node
	n.Key.Blob = r.Uint64()
	n.Key.Version = r.Uvarint()
	n.Key.Range.Start = r.Uvarint()
	n.Key.Range.Size = r.Uvarint()
	flags := r.Uint8()
	if flags&nodeFlagLeaf != 0 {
		leaf := &LeafData{
			Write:   r.Uvarint(),
			RelPage: uint32(r.Uvarint()),
		}
		leaf.Checksum = r.Uint64()
		leaf.Providers = r.Uint32Slice()
		if flags&nodeFlagStripe != 0 {
			s := &StripeRef{
				K:          r.Uint8(),
				M:          r.Uint8(),
				FirstRel:   r.Uint32(),
				ParityRel0: r.Uint32(),
			}
			s.Provs = r.Uint32Slice()
			s.Sums = r.Uint64Slice()
			if r.Err() == nil {
				if want := int(s.K) + int(s.M); len(s.Provs) != want || len(s.Sums) != want {
					return nil, fmt.Errorf("meta: stripe ref shape %d provs/%d sums for rs(%d,%d)",
						len(s.Provs), len(s.Sums), s.K, s.M)
				}
			}
			leaf.Stripe = s
		}
		n.Leaf = leaf
	} else {
		n.LeftVer = r.Uvarint()
		n.RightVer = r.Uvarint()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("meta: decode node: %w", err)
	}
	if n.Key != want {
		return nil, fmt.Errorf("meta: node key mismatch: stored %+v, expected %+v (hash collision or routing bug)", n.Key, want)
	}
	if n.Leaf != nil && !n.Key.Range.IsLeaf() {
		return nil, fmt.Errorf("meta: leaf payload on interior range %v", n.Key.Range)
	}
	if n.Leaf == nil && n.Key.Range.IsLeaf() {
		return nil, fmt.Errorf("meta: interior payload on leaf range %v", n.Key.Range)
	}
	return &n, nil
}
