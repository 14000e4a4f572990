package meta

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"blob/internal/wire"
)

// encodeBlock is EncodeBlock into a fresh buffer.
func encodeBlock(key BlockKey, nodes []Node) []byte {
	w := wire.NewWriter(64 * len(nodes))
	EncodeBlock(w, key, nodes)
	return w.Bytes()
}

// encodeOne stores n alone in its block; decodeOne fetches it back the
// way mstore does: decode the block under the key's block name, then
// look the node up in it.
func encodeOne(n Node) []byte { return encodeBlock(n.Key.Block(), []Node{n}) }

func decodeOne(body []byte, want NodeKey) (*Node, error) {
	nodes, err := DecodeBlock(body, want.Block())
	if err != nil {
		return nil, err
	}
	for i := range nodes {
		if nodes[i].Key == want {
			return &nodes[i], nil
		}
	}
	return nil, fmt.Errorf("block %+v does not hold %+v", want.Block(), want)
}

func TestBlockGeometry(t *testing.T) {
	const h = BlockLevels
	for _, tc := range []struct{ node, block NodeRange }{
		{NodeRange{5, 1}, NodeRange{5 &^ (1<<(h-1) - 1), 1 << (h - 1)}},                // leaf: lowest band
		{NodeRange{0, 1 << (h - 1)}, NodeRange{0, 1 << (h - 1)}},                       // band top names itself
		{NodeRange{1 << h, 1 << h}, NodeRange{0, 1 << (2*h - 1)}},                      // first height of band 1
		{NodeRange{0, 1 << 63}, NodeRange{0, 1 << 63}},                                 // clamped name
		{NodeRange{3 << (h - 1), 1 << (h - 1)}, NodeRange{3 << (h - 1), 1 << (h - 1)}}, // unaligned to the band above
	} {
		if got := tc.node.Block(); got != tc.block {
			t.Errorf("%v.Block() = %v, want %v", tc.node, got, tc.block)
		}
	}

	// Over a whole tree: the blocks partition the nodes, each holds at
	// most 2^h-1 of them spanning at most h heights inside its range,
	// every leaf-band block is full, and a root-to-leaf path crosses
	// ceil(levels/h) blocks.
	for _, total := range []uint64{1, 2, 16, 1 << 7, 1 << 9} {
		blocks := map[NodeRange][]NodeRange{}
		for _, r := range WriteSet(total, PageRange{0, total}) {
			blocks[r.Block()] = append(blocks[r.Block()], r)
		}
		for b, rs := range blocks {
			lo, hi := 64, 0
			for _, r := range rs {
				g := bits.TrailingZeros64(r.Size)
				lo, hi = min(lo, g), max(hi, g)
				if r.Start < b.Start || r.End() > b.End() {
					t.Fatalf("total %d: node %v outside its block %v", total, r, b)
				}
			}
			if len(rs) > 1<<h-1 || hi-lo >= h || lo%h != 0 {
				t.Fatalf("total %d: block %v holds %d nodes over heights %d..%d", total, b, len(rs), lo, hi)
			}
			if lo == 0 && total >= 1<<(h-1) && len(rs) != 1<<h-1 {
				t.Fatalf("total %d: leaf-band block %v holds %d nodes, want full", total, b, len(rs))
			}
		}
		path := map[NodeRange]bool{}
		for r := (NodeRange{0, total}); ; r, _ = r.Children() {
			path[r.Block()] = true
			if r.IsLeaf() {
				break
			}
		}
		if want := (bits.Len64(total) + h - 1) / h; len(path) != want {
			t.Errorf("total %d: a path crosses %d blocks, want %d", total, len(path), want)
		}
	}
}

// sampleBlock is a full lowest-band block of version 9: interior nodes
// over stripe-carrying and plain leaves.
func sampleBlock() (BlockKey, []Node) {
	key := NodeKey{Blob: 3, Version: 9, Range: NodeRange{8, 1}}.Block()
	var nodes []Node
	for size := key.Range.Size; size >= 1; size /= 2 {
		for start := key.Range.Start; start < key.Range.End(); start += size {
			n := Node{Key: NodeKey{Blob: 3, Version: 9, Range: NodeRange{start, size}}}
			switch {
			case size > 1:
				n.LeftVer, n.RightVer = 9, start
			case start%2 == 0:
				n.Leaf = &LeafData{Write: 77, RelPage: uint32(start), Providers: []uint32{2, 5}, Checksum: 0xfeed}
			default:
				n.Leaf = &LeafData{Write: 78, RelPage: uint32(start), Providers: []uint32{2}, Checksum: 0xbeef,
					Stripe: &StripeRef{K: 2, M: 1, FirstRel: uint32(start - 1), ParityRel0: 1<<31 | uint32(start/2),
						Provs: []uint32{1, 2, 3}, Sums: []uint64{4, 0xbeef, 6}}}
			}
			nodes = append(nodes, n)
		}
	}
	return key, nodes
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	key, nodes := sampleBlock()
	if len(nodes) != 1<<BlockLevels-1 {
		t.Fatalf("sample holds %d nodes", len(nodes))
	}
	enc := encodeBlock(key, nodes)
	got, err := DecodeBlock(enc, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, nodes) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, nodes)
	}
	if re := encodeBlock(key, got); !bytes.Equal(re, enc) {
		t.Fatal("decoded block does not re-encode byte-identically")
	}
}

func TestDecodeBlockRejects(t *testing.T) {
	key, nodes := sampleBlock()
	other := func(r NodeRange) Node { return Node{Key: NodeKey{Blob: 3, Version: 9, Range: r}, LeftVer: 1} }
	above := other(NodeRange{0, key.Range.Size * 2})
	beside := other(NodeRange{key.Range.End(), key.Range.Size})
	for name, body := range map[string][]byte{
		"empty block":         encodeBlock(key, nil),
		"too many nodes":      encodeBlock(key, append(nodes[:len(nodes):len(nodes)], nodes[0])),
		"node twice":          encodeBlock(key, []Node{nodes[1], nodes[1]}),
		"node of band above":  encodeBlock(key, []Node{above}),
		"node of block aside": encodeBlock(key, []Node{beside}),
		"unaligned node":      encodeBlock(key, []Node{other(NodeRange{key.Range.Start + 1, 2})}),
		"size not power of 2": encodeBlock(key, []Node{other(NodeRange{key.Range.Start, 3})}),
		"size zero":           encodeBlock(key, []Node{other(NodeRange{key.Range.Start, 0})}),
		"trailing byte":       append(encodeBlock(key, nodes), 0),
		"other version":       encodeBlock(BlockKey{Blob: 3, Version: 8, Range: key.Range}, nodes[:1]),
	} {
		if _, err := DecodeBlock(body, key); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A name that no node maps to cannot be decoded under, whatever
	// the body claims.
	bogus := BlockKey{Blob: 3, Version: 9, Range: NodeRange{0, 2 * key.Range.Size}}
	if _, err := DecodeBlock(encodeBlock(bogus, []Node{other(NodeRange{0, 2})}), bogus); err == nil {
		t.Error("block named by a non-top height accepted")
	}
}

// TestDecodeBlockMutations flips every bit and cuts every prefix of a
// full block: whatever is still accepted holds only nodes of this
// block's version, range and band.
func TestDecodeBlockMutations(t *testing.T) {
	key, nodes := sampleBlock()
	enc := encodeBlock(key, nodes)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBlock(enc[:cut], key); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	for i := 0; i < len(enc)*8; i++ {
		mut := bytes.Clone(enc)
		mut[i/8] ^= 1 << (i % 8)
		checkDecoded(t, mut, key)
	}
}

// checkDecoded asserts the decoder's contract on arbitrary bytes.
func checkDecoded(t *testing.T, body []byte, key BlockKey) {
	t.Helper()
	nodes, err := DecodeBlock(body, key)
	if err != nil {
		return
	}
	if len(nodes) < 1 || len(nodes) > 1<<BlockLevels-1 {
		t.Fatalf("accepted %d nodes", len(nodes))
	}
	for _, n := range nodes {
		if n.Key.Block() != key {
			t.Fatalf("accepted node %+v outside block %+v", n.Key, key)
		}
		if (n.Leaf != nil) != n.IsLeaf() {
			t.Fatalf("accepted node %+v with the wrong payload shape", n.Key)
		}
	}
	if re := encodeBlock(key, nodes); !bytes.Equal(re, body) {
		t.Fatalf("accepted input does not re-encode byte-identically:\n in %x\nout %x", body, re)
	}
}

// FuzzBlockDecode feeds arbitrary bytes to the one decoder that parses
// what metadata providers return. The expected key is read from the
// input's own header, so the fuzzer reaches past the key check. The
// decoder must never panic, never return a node outside the block's
// range or band, and accept only canonical input.
func FuzzBlockDecode(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzBlockDecode) holds the
	// shaped seeds: torn, padded, duplicated, out-of-band, wrapping.
	key, nodes := sampleBlock()
	f.Add(encodeBlock(key, nodes))
	f.Add([]byte{})
	// One leaf in each leaf encoding: a page of an rs(1,2) stripe (three
	// providers, no stripe ref) and a page of an rs(3,2) stripe.
	leaf := NodeKey{Blob: 3, Version: 9, Range: NodeRange{8, 1}}
	for _, l := range []*LeafData{
		{Write: 5, RelPage: 8, Providers: []uint32{4, 6, 1}, Checksum: 0xc0de},
		{Write: 5, RelPage: 8, Providers: []uint32{6}, Checksum: 0xc0de, Stripe: &StripeRef{
			K: 3, M: 2, FirstRel: 6, ParityRel0: 1<<31 | 4,
			Provs: []uint32{4, 1, 6, 7, 8}, Sums: []uint64{1, 2, 0xc0de, 3, 4}}},
	} {
		f.Add(encodeBlock(leaf.Block(), []Node{{Key: leaf, Leaf: l}}))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := wire.NewReader(body)
		want := BlockKey{Blob: r.Uint64(), Version: r.Uvarint()}
		want.Range = NodeRange{Start: r.Uvarint(), Size: r.Uvarint()}
		checkDecoded(t, body, want)
		checkDecoded(t, body, key)
		checkBlocksBelow(t, body, want)
	})
}

// TestCopiesLeafCostsAReplicatedLeaf: a k = 1 leaf — a page and its
// copies — encodes to exactly the bytes a replicated leaf with the same
// providers and checksum took before replication became rs(1,m) (leaf
// flag, write, rel, checksum, providers), and decodes with no more
// allocations: the block's node slice, the leaf, its provider slice.
func TestCopiesLeafCostsAReplicatedLeaf(t *testing.T) {
	for _, provs := range [][]uint32{{7}, {7, 2}, {7, 2, 9}} {
		key := NodeKey{Blob: 3, Version: 9, Range: NodeRange{8, 1}}
		n := Node{Key: key, Leaf: &LeafData{Write: 1<<40 + 3, RelPage: 300, Providers: provs, Checksum: 0xfeedface}}
		got := wire.NewWriter(64)
		n.encodeTo(got)
		want := wire.NewWriter(64)
		want.Uvarint(8)
		want.Uvarint(1)
		want.Uint8(1)
		want.Uvarint(1<<40 + 3)
		want.Uvarint(300)
		want.Uint64(0xfeedface)
		want.Uint32Slice(provs)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d providers: leaf encodes as %x, a replicated leaf was %x", len(provs), got.Bytes(), want.Bytes())
		}
		body := encodeBlock(key.Block(), []Node{n})
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeBlock(body, key.Block()); err != nil {
				t.Fatal(err)
			}
		}); allocs > 3 {
			t.Errorf("%d providers: decoding the leaf's block allocates %.0f times, want <= 3", len(provs), allocs)
		}
	}
}

// TestBlocksBelowScanAllocatesNothing: the scan a provider runs on every
// block it serves allocates nothing, stripe-carrying leaves included,
// and even a leaf-band block names blocks: an interior node's border
// child of another version lives in that version's block of the same
// band.
func TestBlocksBelowScanAllocatesNothing(t *testing.T) {
	key, nodes := sampleBlock()
	body := encodeBlock(key, nodes)
	pr := PageRange{First: key.Range.Start, Count: key.Range.Size}
	want := decodedBlocksBelow(body, key, pr)
	if len(want) == 0 {
		t.Fatal("test bug: the sample block names nothing")
	}
	dst := make([]uint64, 0, 2*maxBlockNodes)
	if allocs := testing.AllocsPerRun(100, func() { dst = AppendBlocksBelow(dst[:0], body, pr) }); allocs != 0 {
		t.Fatalf("scan allocates %.1f times per block", allocs)
	}
	if !slices.Equal(dst, want) {
		t.Fatalf("scan names %x, decode-based walk %x", dst, want)
	}
}

// decodedBlocksBelow is the walk AppendBlocksBelow must match, over
// DecodeBlock's nodes: the blocks other than key that hold the children
// pr crosses of the nodes pr crosses; nothing when the body does not
// decode.
func decodedBlocksBelow(body []byte, key BlockKey, pr PageRange) []uint64 {
	nodes, err := DecodeBlock(body, key)
	if err != nil {
		return nil
	}
	var out []uint64
	for i := range nodes {
		n := &nodes[i]
		if n.IsLeaf() || !pr.Intersects(n.Key.Range) {
			continue
		}
		left, right := n.Key.Range.Children()
		if n.LeftVer != ZeroVersion && pr.Intersects(left) {
			if child := (NodeKey{Blob: key.Blob, Version: n.LeftVer, Range: left}).Block(); child != key {
				out = append(out, child.Hash())
			}
		}
		if n.RightVer != ZeroVersion && pr.Intersects(right) {
			if child := (NodeKey{Blob: key.Blob, Version: n.RightVer, Range: right}).Block(); child != key {
				out = append(out, child.Hash())
			}
		}
	}
	return out
}

// checkBlocksBelow requires AppendBlocksBelow to name exactly, in order,
// what the decode-based walk names, for the whole page space and for
// single pages and pairs at the block's edges and middle, and to leave
// what dst already held alone.
func checkBlocksBelow(t *testing.T, body []byte, key BlockKey) {
	t.Helper()
	r := key.Range
	ranges := []PageRange{
		{First: 0, Count: math.MaxUint64},
		{First: r.Start, Count: 1},
		{First: r.Start + r.Size/2, Count: 1},
		{First: r.Start + r.Size/2 - 1, Count: 2},
		{First: r.End() - 1, Count: 1},
	}
	for _, pr := range ranges {
		want := decodedBlocksBelow(body, key, pr)
		got := AppendBlocksBelow([]uint64{42}, body, pr)
		if got[0] != 42 || !slices.Equal(got[1:], want) {
			t.Fatalf("range %v: scan names %x, decode-based walk %x", pr, got, want)
		}
	}
}
