// Package meta implements the metadata representation at the heart of the
// paper: a per-version distributed segment tree over the page space of a
// blob, plus the interval-version bookkeeping the version manager uses to
// precompute the "weaving" of a new partial tree into the forest of
// earlier versions (paper §III.C and §IV.C).
//
// Terminology follows the paper: a blob of totalPages pages (a power of
// two) has, per version, a full binary tree whose root covers
// [0, totalPages) and whose leaves cover single pages. A node is
// identified by (blob, version, start, size); it exists exactly when the
// version's written segment intersects [start, start+size). Interior
// nodes record the version numbers of their two children; a child version
// of zero denotes the implicit all-zero subtree of the initial blob
// state. Leaves record where the page bytes live (the owning write and
// its stripe's providers).
//
// Nodes are stored packed: what a version creates inside one band of
// BlockLevels levels under one ancestor is a single immutable block
// (NodeRange.Block), so a descent pays per block crossed, not per level.
package meta

import (
	"fmt"
	"math/bits"

	"blob/internal/wire"
)

// Version numbers a snapshot of a blob. Versions are consecutive
// integers; ZeroVersion is the implicit all-zero initial string.
type Version = uint64

// ZeroVersion is the version of the initial, all-zero blob content.
const ZeroVersion Version = 0

// PageRange is a run of consecutive pages: [First, First+Count).
type PageRange struct {
	First uint64
	Count uint64
}

// End returns the exclusive upper page bound.
func (p PageRange) End() uint64 { return p.First + p.Count }

// Empty reports whether the range covers no pages.
func (p PageRange) Empty() bool { return p.Count == 0 }

// Intersects reports whether p overlaps node range r.
func (p PageRange) Intersects(r NodeRange) bool {
	return p.First < r.End() && r.Start < p.End()
}

// String renders the range for diagnostics.
func (p PageRange) String() string {
	return fmt.Sprintf("[%d,%d)", p.First, p.End())
}

// NodeRange is the page interval covered by a segment tree node:
// [Start, Start+Size) with Size a power of two and Start a multiple of
// Size (the standard segment tree alignment).
type NodeRange struct {
	Start uint64
	Size  uint64
}

// End returns the exclusive upper page bound.
func (r NodeRange) End() uint64 { return r.Start + r.Size }

// IsLeaf reports whether the node covers a single page.
func (r NodeRange) IsLeaf() bool { return r.Size == 1 }

// Children returns the two halves of the node's interval.
func (r NodeRange) Children() (left, right NodeRange) {
	h := r.Size / 2
	return NodeRange{r.Start, h}, NodeRange{r.Start + h, h}
}

// Contains reports whether page p falls inside the node's interval.
func (r NodeRange) Contains(p uint64) bool {
	return p >= r.Start && p < r.End()
}

// String renders the range for diagnostics.
func (r NodeRange) String() string {
	return fmt.Sprintf("(%d,%d)", r.Start, r.Size)
}

// IsPowerOfTwo reports whether v is a positive power of two.
func IsPowerOfTwo(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// ValidateGeometry checks that totalPages is a power of two and wr is a
// non-empty in-bounds page range.
func ValidateGeometry(totalPages uint64, wr PageRange) error {
	if !IsPowerOfTwo(totalPages) {
		return fmt.Errorf("meta: totalPages %d is not a power of two", totalPages)
	}
	if wr.Empty() {
		return fmt.Errorf("meta: empty page range")
	}
	if wr.End() > totalPages || wr.End() < wr.First {
		return fmt.Errorf("meta: range %v exceeds blob of %d pages", wr, totalPages)
	}
	return nil
}

// NodeKey is the global identity of one tree node.
type NodeKey struct {
	Blob    uint64
	Version Version
	Range   NodeRange
}

// Hash mixes the key's fields into one well-dispersed word: through
// BlockKey.Hash the DHT key, by which the client caches blocks too.
func (k NodeKey) Hash() uint64 {
	return wire.HashFields(k.Blob, k.Version, k.Range.Start, k.Range.Size)
}

// BlockLevels is how many tree levels are stored as one dht value: read
// round trips against how much of a block a small write leaves empty
// (docs/perf.md has the measurement behind 3). Part of the stored
// layout, so a constant, not an option.
const BlockLevels = 3

// BlockKey names one stored block: the nodes Version created inside
// Range. A type of its own, so that only a block name can become a dht
// key — single nodes are never stored.
type BlockKey NodeKey

// Block returns the name of the block that stores a node of range r.
// Heights (log2 Size) are cut into bands of BlockLevels counted from
// the leaves, so the leaf bands — where a large tree misses the client
// cache — are always full. A block holds what its version wrote of one
// band under one ancestor of the band's top height and is named by that
// ancestor's range, which in the top band may exceed the real root (and
// is clamped at 2^63 pages): it is only a name.
func (r NodeRange) Block() NodeRange {
	top := min(bits.TrailingZeros64(r.Size)/BlockLevels*BlockLevels+BlockLevels-1, 63)
	size := uint64(1) << top
	return NodeRange{Start: r.Start &^ (size - 1), Size: size}
}

// Block returns the key of the block that stores node k.
func (k NodeKey) Block() BlockKey {
	return BlockKey{Blob: k.Blob, Version: k.Version, Range: k.Range.Block()}
}

// RegionBands is how many block bands, counted from the leaves, make
// one region: the dispersal unit of the metadata DHT. A block whose
// range fits inside one aligned run of RegionPages pages takes its ring
// position from (blob, region index), so the blocks that all versions
// wrote of one subtree share a metadata provider, and that provider can
// continue a descent through them locally instead of sending the reader
// to another node per change of version (mstore.FollowBlock). Blocks of
// the bands above keep dispersing by version. Part of the stored layout
// — it decides where a block lives — so a constant, not an option;
// docs/perf.md has the measurement behind 3 (2, 3 and 4 bands compared).
const RegionBands = 3

// RegionPages is the width of a region in pages (256).
const RegionPages = 1 << (RegionBands*BlockLevels - 1)

// regionIDBits splits an in-region block's dht key: the low regionIDBits
// bits are the block's identity (its own hash), the 64-regionIDBits = 20
// bits above are the region's ring position. The arithmetic behind 44:
//
//   - Placement. A region's keys span 2^44 consecutive ring positions. A
//     ring of N providers has 64·N points (dht.VNodesPerNode), so a span
//     holds one — and the region then splits over two primaries, costing
//     such reads a second trip — with probability 64·N/2^20: 0.03 % on 5
//     providers, 1 % on 160. 2^20 prefixes also spread the regions of
//     one blob (65 536 in a TB of 64 KiB pages) evenly over any ring.
//   - Identity. Two blocks collide when prefix and identity both match.
//     Blocks of different regions get their prefix from an independent
//     hash, so a pair collides with 2^-64 as before; n live blocks of
//     one region collide with about n²/2^45: a region rewritten whole by
//     1 000 live versions (73 blocks each) 1.5·10⁻⁴, one patched page by
//     page by 10 000 live versions (3 blocks each) 3·10⁻⁵. A collision
//     stays loud: the first put wins and DecodeBlock refuses the other
//     block's stored key.
const regionIDBits = 44

// Hash maps the block onto the DHT key space — the only place a block
// becomes a dht key. A block above the regions disperses by its whole
// name; one inside a region sits at the region's ring position, told
// apart from its neighbours by the low bits of that same hash.
func (b BlockKey) Hash() uint64 {
	h := NodeKey(b).Hash()
	if b.Range.Size > RegionPages {
		return h
	}
	const id = 1<<regionIDBits - 1
	return wire.HashFields(regionSalt, b.Blob, b.Range.Start/RegionPages)&^id | h&id
}

// regionSalt keeps region positions out of the hash domain of the ring's
// own points (dht hashes (node id, vnode index), two small integers like
// blob and region index): unsalted, region r of blob 1 sat exactly on
// point r of node 1 and was split by it.
const regionSalt = 0x6e6f69676572 // "region"

// RootKey returns the key of version v's root node.
func RootKey(blob uint64, v Version, totalPages uint64) NodeKey {
	return NodeKey{Blob: blob, Version: v, Range: NodeRange{0, totalPages}}
}

// BytesToPages converts a byte extent to a page range, requiring page
// alignment: the paper's access unit is the segment, a concatenation of
// consecutive pages.
func BytesToPages(off, length, pageSize uint64) (PageRange, error) {
	if !IsPowerOfTwo(pageSize) {
		return PageRange{}, fmt.Errorf("meta: page size %d is not a power of two", pageSize)
	}
	if off%pageSize != 0 {
		return PageRange{}, fmt.Errorf("meta: offset %d not aligned to page size %d", off, pageSize)
	}
	if length == 0 || length%pageSize != 0 {
		return PageRange{}, fmt.Errorf("meta: length %d not a positive multiple of page size %d", length, pageSize)
	}
	return PageRange{First: off / pageSize, Count: length / pageSize}, nil
}
