package meta

import (
	"fmt"
	"math"

	"blob/internal/erasure"
	"blob/internal/wire"
)

// LeafData records where one page's bytes physically live. The page is
// keyed on data providers by (blob, Write, RelPage): Write is the
// client-generated write identity (pages are pushed before the version
// number exists — paper §III.B), and RelPage the page's index relative to
// the write's first page. Checksum is wire.Checksum64 (CRC-32C,
// zero-extended) of the page content, verified on read.
//
// Every page is a data slot of one rs(k,m) stripe of its write
// (docs/erasure.md). Providers lists the providers a read asks for the
// page itself, in order. For k = 1 those are all of the stripe's slots:
// the page's provider, then each copy's (a parity slot of rs(1,m) holds
// the page verbatim), and Stripe is nil, because the leaf implies the
// rest of the layout (ProviderRel, Layout). For k >= 2 Providers is the
// page's own slot only, and Stripe describes the whole stripe —
// everything a degraded read or the repair agent needs to reconstruct
// any shard from k survivors without further metadata fetches.
type LeafData struct {
	Write     uint64
	RelPage   uint32
	Providers []uint32
	Checksum  uint64
	Stripe    *StripeRef
}

// ProviderRel returns the rel-page under which Providers[i] holds the
// page: RelPage for the page's own slot, the parity slot's rel for a
// copy of a k = 1 page.
func (l *LeafData) ProviderRel(i int) uint32 {
	if i == 0 {
		return l.RelPage
	}
	return erasure.ParityRel(l.RelPage, i-1, len(l.Providers)-1)
}

// Layout returns the page's stripe: *Stripe for k >= 2, and for a k = 1
// page the rs(1, len(Providers)-1) stripe the leaf implies, its slots
// all summing to Checksum.
func (l *LeafData) Layout() StripeRef {
	if l.Stripe != nil {
		return *l.Stripe
	}
	m := max(len(l.Providers)-1, 0)
	sums := make([]uint64, len(l.Providers))
	for i := range sums {
		sums[i] = l.Checksum
	}
	return StripeRef{
		K: 1, M: uint8(m), FirstRel: l.RelPage, ParityRel0: erasure.ParityRel(l.RelPage, 0, m),
		Provs: l.Providers, Sums: sums,
	}
}

// StripeRef is one stripe's full layout, embedded in each of its data
// leaves when k >= 2 (stripe members share a write, so the duplication
// is a few dozen bytes per leaf and keeps reconstruction single-fetch).
// Slot i of [0,K) is the data page at rel FirstRel+i; slot K+j the
// parity page at rel ParityRel0+j. K is the stripe's own width — a
// short final stripe records its actual data count, making every stripe
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

// encodeTo appends the node's encoding to w: its range and payload.
// Blob and version are not repeated per node — a node is only ever
// stored inside a block (EncodeBlock), whose header carries them once.
func (n *Node) encodeTo(w *wire.Writer) {
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
		if s := n.Leaf.Stripe; s != nil {
			// Providers is Provs' entry for the page's slot: not stored.
			w.Uint8(s.K)
			w.Uint8(s.M)
			w.Uint32(s.FirstRel)
			w.Uint32(s.ParityRel0)
			w.Uint32Slice(s.Provs)
			w.Uint64Slice(s.Sums)
		} else {
			w.Uint32Slice(n.Leaf.Providers)
		}
	} else {
		w.Uint8(0)
		w.Uvarint(n.LeftVer)
		w.Uvarint(n.RightVer)
	}
}

// EncodeBlock appends the stored form of one block to w: the block key
// once (so a decoder can detect hash collisions or routing mistakes),
// a count, then the nodes, each of which must have Key.Block() == key.
func EncodeBlock(w *wire.Writer, key BlockKey, nodes []Node) {
	w.Uint64(key.Blob)
	w.Uvarint(key.Version)
	w.Uvarint(key.Range.Start)
	w.Uvarint(key.Range.Size)
	w.Uvarint(uint64(len(nodes)))
	for i := range nodes {
		nodes[i].encodeTo(w)
	}
}

// maxBlockNodes is the most nodes one block holds: a full band.
const maxBlockNodes = 1<<BlockLevels - 1

// DecodeBlock parses a stored block and validates it before use: the
// stored key is the expected one, it holds 1..2^BlockLevels-1 nodes,
// each a well-formed range inside this block's range and band, none
// twice, leaf payloads exactly on leaf ranges, no byte left over. An
// accepted body is canonical: its nodes re-encode to it byte for byte.
func DecodeBlock(body []byte, want BlockKey) ([]Node, error) {
	r := wire.NewReader(body)
	got := readBlockKey(r)
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("meta: decode block: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("meta: block key mismatch: stored %+v, expected %+v (hash collision or routing bug)", got, want)
	}
	if count < 1 || count > maxBlockNodes {
		return nil, fmt.Errorf("meta: block %+v holds %d nodes, want 1..%d", want, count, maxBlockNodes)
	}
	nodes := make([]Node, count)
	var seen [maxBlockNodes]NodeRange
	for i := range nodes {
		if err := readNode(r, want, &nodes[i], seen[:i], true); err != nil {
			return nil, err
		}
		seen[i] = nodes[i].Key.Range
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("meta: %d trailing bytes after block %+v", r.Remaining(), want)
	}
	return nodes, nil
}

// AppendBlocksBelow appends to dst the dht keys of the blocks a reader
// of pr steps into from the stored block body: the blocks, other than
// this one, holding the children that pr crosses of the block's nodes
// that pr crosses. It names exactly what walking DecodeBlock's nodes
// under the body's own stored key would, and nothing for a body
// DecodeBlock rejects, but it materializes no node: leaf payloads are
// checked and skipped, so a valid block costs no allocation beyond
// dst's growth. A metadata provider runs it on every block it serves
// (mstore.FollowBlock).
func AppendBlocksBelow(dst []uint64, body []byte, pr PageRange) []uint64 {
	r := wire.NewReader(body)
	key := readBlockKey(r)
	count := r.Uvarint()
	if r.Err() != nil || count < 1 || count > maxBlockNodes {
		return dst
	}
	named := len(dst)
	var seen [maxBlockNodes]NodeRange
	for i := range int(count) {
		var n Node
		if err := readNode(r, key, &n, seen[:i], false); err != nil {
			return dst[:named]
		}
		seen[i] = n.Key.Range
		if n.Key.Range.IsLeaf() || !pr.Intersects(n.Key.Range) {
			continue
		}
		left, right := n.Key.Range.Children()
		for _, side := range [2]struct {
			r   NodeRange
			ver Version
		}{{left, n.LeftVer}, {right, n.RightVer}} {
			if side.ver == ZeroVersion || !pr.Intersects(side.r) {
				continue
			}
			child := NodeKey{Blob: key.Blob, Version: side.ver, Range: side.r}.Block()
			if child != key {
				dst = append(dst, child.Hash())
			}
		}
	}
	if r.Remaining() != 0 {
		return dst[:named]
	}
	return dst
}

// readBlockKey parses the key EncodeBlock wrote first.
func readBlockKey(r *wire.Reader) BlockKey {
	k := BlockKey{Blob: r.Uint64(), Version: r.Uvarint()}
	k.Range = NodeRange{Start: r.Uvarint(), Size: r.Uvarint()}
	return k
}

// readNode parses the next node of block want into n and checks it the
// one way DecodeBlock and AppendBlocksBelow share: a well-formed range
// inside the block's range and band, none of the earlier nodes' ranges
// (seen), its payload the shape its range asks for. With keep false a
// leaf's payload is checked but not kept: n.Leaf stays nil, and nothing
// is allocated.
func readNode(r *wire.Reader, want BlockKey, n *Node, seen []NodeRange, keep bool) error {
	n.Key = NodeKey{Blob: want.Blob, Version: want.Version}
	n.Key.Range = NodeRange{Start: r.Uvarint(), Size: r.Uvarint()}
	leaf, err := decodePayload(r, n, keep)
	if err != nil {
		return err
	}
	rg := n.Key.Range
	if !IsPowerOfTwo(rg.Size) || rg.Start%rg.Size != 0 || rg.Block() != want.Range {
		return fmt.Errorf("meta: node range %v is not part of block %v", rg, want.Range)
	}
	for _, s := range seen {
		if s == rg {
			return fmt.Errorf("meta: node range %v twice in block %v", rg, want.Range)
		}
	}
	if leaf != rg.IsLeaf() {
		return fmt.Errorf("meta: leaf/interior payload does not match range %v", rg)
	}
	return nil
}

// decodePayload parses what encodeTo wrote after a node's range and
// reports whether it was a leaf payload, which it keeps in n.Leaf only
// when keep is set.
func decodePayload(r *wire.Reader, n *Node, keep bool) (leaf bool, err error) {
	flags := r.Uint8()
	switch {
	case flags&^(nodeFlagLeaf|nodeFlagStripe) != 0 || flags == nodeFlagStripe:
		return false, fmt.Errorf("meta: node flags %#x", flags)
	case flags&nodeFlagLeaf != 0:
		leaf = true
		ld := LeafData{Write: r.Uvarint()}
		rel := r.Uvarint()
		if rel > math.MaxUint32 {
			return false, fmt.Errorf("meta: leaf rel-page %d overflows", rel)
		}
		ld.RelPage = uint32(rel)
		ld.Checksum = r.Uint64()
		if flags&nodeFlagStripe == 0 {
			ld.Providers, _ = uint32s(r, keep)
		} else {
			s := StripeRef{
				K:          r.Uint8(),
				M:          r.Uint8(),
				FirstRel:   r.Uint32(),
				ParityRel0: r.Uint32(),
			}
			var provs, sums int
			s.Provs, provs = uint32s(r, keep)
			s.Sums, sums = uint64s(r, keep)
			if err := r.Err(); err != nil {
				return false, fmt.Errorf("meta: decode node: %w", err)
			}
			slot := s.SlotOf(ld.RelPage)
			if want := int(s.K) + int(s.M); provs != want || sums != want || slot < 0 || slot >= int(s.K) {
				return false, fmt.Errorf("meta: stripe ref shape %d provs/%d sums for rs(%d,%d), page at slot %d",
					provs, sums, s.K, s.M, slot)
			}
			if keep {
				kept := s
				ld.Stripe = &kept
				ld.Providers = kept.Provs[slot : slot+1 : slot+1]
			}
		}
		if keep {
			kept := ld
			n.Leaf = &kept
		}
	default:
		n.LeftVer = r.Uvarint()
		n.RightVer = r.Uvarint()
	}
	if err := r.Err(); err != nil {
		return false, fmt.Errorf("meta: decode node: %w", err)
	}
	return leaf, nil
}

// uint32s reads a counted uint32 slice, or with keep false only checks
// and skips it; either way it returns the count.
func uint32s(r *wire.Reader, keep bool) ([]uint32, int) {
	if keep {
		s := r.Uint32Slice()
		return s, len(s)
	}
	n := r.Count(4)
	r.Skip(4 * n)
	return nil, n
}

// uint64s is uint32s for uint64 elements.
func uint64s(r *wire.Reader, keep bool) ([]uint64, int) {
	if keep {
		s := r.Uint64Slice()
		return s, len(s)
	}
	n := r.Count(8)
	r.Skip(8 * n)
	return nil, n
}
