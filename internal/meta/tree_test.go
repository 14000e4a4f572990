package meta

import (
	"math/rand"
	"testing"
)

// naiveWriteSet enumerates all node ranges of the full tree and keeps the
// intersecting ones — the O(totalPages) specification WriteSet must match.
func naiveWriteSet(totalPages uint64, wr PageRange) map[NodeRange]bool {
	out := map[NodeRange]bool{}
	for size := totalPages; size >= 1; size /= 2 {
		for start := uint64(0); start < totalPages; start += size {
			r := NodeRange{start, size}
			if wr.Intersects(r) {
				out[r] = true
			}
		}
	}
	return out
}

func TestWriteSetMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		total := uint64(1) << (rng.Intn(7) + 1) // 2..128 pages
		first := uint64(rng.Intn(int(total)))
		count := uint64(rng.Intn(int(total-first))) + 1
		wr := PageRange{first, count}
		got := WriteSet(total, wr)
		want := naiveWriteSet(total, wr)
		if len(got) != len(want) {
			t.Fatalf("total=%d wr=%v: got %d nodes, want %d", total, wr, len(got), len(want))
		}
		for _, r := range got {
			if !want[r] {
				t.Fatalf("total=%d wr=%v: unexpected node %v", total, wr, r)
			}
		}
		if CountWriteSet(total, wr) != len(want) {
			t.Fatalf("CountWriteSet disagrees with WriteSet")
		}
	}
}

func TestWriteSetPreOrderRootFirst(t *testing.T) {
	got := WriteSet(8, PageRange{3, 2})
	if got[0] != (NodeRange{0, 8}) {
		t.Errorf("first node = %v, want root", got[0])
	}
	// Every node must appear after its parent.
	seen := map[NodeRange]bool{got[0]: true}
	for _, r := range got[1:] {
		parent := NodeRange{r.Start &^ (r.Size*2 - 1), r.Size * 2}
		if !seen[parent] {
			t.Errorf("node %v before its parent %v", r, parent)
		}
		seen[r] = true
	}
}

func TestWriteSetSizes(t *testing.T) {
	// Full-blob write of N pages creates 2N-1 nodes.
	if n := CountWriteSet(16, PageRange{0, 16}); n != 31 {
		t.Errorf("full write nodes = %d, want 31", n)
	}
	// Single-page write creates one node per level: five over 16 pages.
	if n := CountWriteSet(16, PageRange{5, 1}); n != 5 {
		t.Errorf("single-page write nodes = %d, want 5", n)
	}
}

func TestBordersProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		total := uint64(1) << (rng.Intn(7) + 1)
		first := uint64(rng.Intn(int(total)))
		count := uint64(rng.Intn(int(total-first))) + 1
		wr := PageRange{first, count}
		borders := Borders(total, wr)
		created := naiveWriteSet(total, wr)
		seen := map[NodeRange]bool{}
		for _, b := range borders {
			if wr.Intersects(b.Child) {
				t.Fatalf("wr=%v: border child %v intersects the write", wr, b.Child)
			}
			if !created[b.Parent] {
				t.Fatalf("wr=%v: border parent %v is not a created node", wr, b.Parent)
			}
			l, r := b.Parent.Children()
			if b.Child != l && b.Child != r {
				t.Fatalf("wr=%v: %v is not a child of %v", wr, b.Child, b.Parent)
			}
			if seen[b.Child] {
				t.Fatalf("wr=%v: duplicate border child %v", wr, b.Child)
			}
			seen[b.Child] = true
		}
		// Every created interior node's children are each either created
		// or a border child.
		for r := range created {
			if r.IsLeaf() {
				continue
			}
			l, rr := r.Children()
			for _, c := range []NodeRange{l, rr} {
				if !created[c] && !seen[c] {
					t.Fatalf("wr=%v: child %v of %v neither created nor border", wr, c, r)
				}
			}
		}
	}
}

func TestBordersFullWriteEmpty(t *testing.T) {
	if b := Borders(32, PageRange{0, 32}); len(b) != 0 {
		t.Errorf("full-blob write has %d borders, want 0", len(b))
	}
}

func TestBuildValidation(t *testing.T) {
	noResolve := func(NodeRange) (Version, error) { return 0, nil }
	noLeaf := func(uint64) (LeafData, error) { return LeafData{}, nil }
	if _, err := Build(1, 1, 12, PageRange{0, 1}, noResolve, noLeaf); err == nil {
		t.Error("non-power-of-two total accepted")
	}
	if _, err := Build(1, 1, 16, PageRange{0, 0}, noResolve, noLeaf); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := Build(1, 1, 16, PageRange{8, 16}, noResolve, noLeaf); err == nil {
		t.Error("out-of-bounds range accepted")
	}
	if _, err := Build(1, ZeroVersion, 16, PageRange{0, 1}, noResolve, noLeaf); err == nil {
		t.Error("zero version accepted")
	}
}

func TestBuildPaperScenario(t *testing.T) {
	// Reproduces Figure 2(b): a 4-page blob. Version 1 writes everything;
	// version 2 patches page 1; version 3 patches page 2.
	const total = 4
	mkLeaf := func(v Version) func(uint64) (LeafData, error) {
		return func(p uint64) (LeafData, error) {
			return LeafData{Write: v * 100, RelPage: uint32(p)}, nil
		}
	}
	ivm, err := NewIntervalVersionMap(total)
	if err != nil {
		t.Fatal(err)
	}

	buildAt := func(v Version, wr PageRange) []Node {
		borders := Borders(total, wr)
		ivm.ResolveBorders(borders)
		ivm.Assign(wr, v)
		nodes, err := Build(9, v, total, wr, BorderResolver(borders), mkLeaf(v))
		if err != nil {
			t.Fatal(err)
		}
		return nodes
	}

	v1 := buildAt(1, PageRange{0, 4})
	if len(v1) != 7 {
		t.Fatalf("v1 nodes = %d, want 7", len(v1))
	}

	v2 := buildAt(2, PageRange{1, 1})
	// Expected: root(0,4), interior(0,2), leaf(1,1) — three nodes.
	if len(v2) != 3 {
		t.Fatalf("v2 nodes = %d, want 3", len(v2))
	}
	byRange := map[NodeRange]Node{}
	for _, n := range v2 {
		byRange[n.Key.Range] = n
	}
	root := byRange[NodeRange{0, 4}]
	// Paper: "the missing right child of A2 is set to C1" — right half
	// (2,2) resolves to version 1.
	if root.LeftVer != 2 || root.RightVer != 1 {
		t.Errorf("v2 root children = (%d,%d), want (2,1)", root.LeftVer, root.RightVer)
	}
	b2 := byRange[NodeRange{0, 2}]
	// "the missing left child of B2 is set to D1" — left half (0,1) is 1.
	if b2.LeftVer != 1 || b2.RightVer != 2 {
		t.Errorf("v2 (0,2) children = (%d,%d), want (1,2)", b2.LeftVer, b2.RightVer)
	}

	v3 := buildAt(3, PageRange{2, 1})
	byRange = map[NodeRange]Node{}
	for _, n := range v3 {
		byRange[n.Key.Range] = n
	}
	root = byRange[NodeRange{0, 4}]
	// "the left child of A3 is set to B2" — left half resolves to 2.
	if root.LeftVer != 2 || root.RightVer != 3 {
		t.Errorf("v3 root children = (%d,%d), want (2,3)", root.LeftVer, root.RightVer)
	}
	c3 := byRange[NodeRange{2, 2}]
	// "the right child of C3 is set to G1" — page 3 still version 1.
	if c3.LeftVer != 3 || c3.RightVer != 1 {
		t.Errorf("v3 (2,2) children = (%d,%d), want (3,1)", c3.LeftVer, c3.RightVer)
	}
}

func TestBuildResolverMissingBorder(t *testing.T) {
	resolve := BorderResolver(nil) // empty: every border lookup fails
	_, err := Build(1, 1, 8, PageRange{0, 1}, resolve, func(uint64) (LeafData, error) {
		return LeafData{}, nil
	})
	if err == nil {
		t.Error("Build should fail when a border version is unresolved")
	}
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	interior := Node{
		Key:     NodeKey{Blob: 3, Version: 9, Range: NodeRange{8, 4}},
		LeftVer: 9, RightVer: 2,
	}
	b := encodeOne(interior)
	got, err := decodeOne(b, interior.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.LeftVer != 9 || got.RightVer != 2 || got.Leaf != nil {
		t.Errorf("interior round-trip = %+v", got)
	}

	leaf := Node{
		Key: NodeKey{Blob: 3, Version: 9, Range: NodeRange{5, 1}},
		Leaf: &LeafData{
			Write: 77, RelPage: 3, Providers: []uint32{2, 5}, Checksum: 0xfeed,
		},
	}
	b = encodeOne(leaf)
	got, err = decodeOne(b, leaf.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Leaf == nil || got.Leaf.Write != 77 || got.Leaf.RelPage != 3 ||
		got.Leaf.Checksum != 0xfeed || len(got.Leaf.Providers) != 2 {
		t.Errorf("leaf round-trip = %+v", got.Leaf)
	}
}

func TestDecodeNodeKeyMismatch(t *testing.T) {
	n := Node{Key: NodeKey{Blob: 1, Version: 1, Range: NodeRange{0, 2}}}
	b := encodeOne(n)
	wrong := NodeKey{Blob: 2, Version: 1, Range: NodeRange{0, 2}}
	if _, err := decodeOne(b, wrong); err == nil {
		t.Error("key mismatch not detected")
	}
}

func TestDecodeNodeShapeMismatch(t *testing.T) {
	// A leaf payload claiming an interior range must be rejected.
	n := Node{
		Key:  NodeKey{Blob: 1, Version: 1, Range: NodeRange{0, 1}},
		Leaf: &LeafData{Write: 1},
	}
	b := encodeOne(n)
	// Craft a decode expectation with an interior range by re-encoding
	// with a doctored key.
	n2 := Node{Key: NodeKey{Blob: 1, Version: 1, Range: NodeRange{0, 2}}, Leaf: &LeafData{Write: 1}}
	b2 := encodeOne(n2)
	if _, err := decodeOne(b2, n2.Key); err == nil {
		t.Error("leaf payload on interior range not rejected")
	}
	if _, err := decodeOne(b, n.Key); err != nil {
		t.Errorf("valid leaf rejected: %v", err)
	}
}

func TestBytesToPages(t *testing.T) {
	pr, err := BytesToPages(128<<10, 256<<10, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if pr != (PageRange{2, 4}) {
		t.Errorf("pr = %v, want [2,6)", pr)
	}
	if _, err := BytesToPages(1, 64<<10, 64<<10); err == nil {
		t.Error("unaligned offset accepted")
	}
	if _, err := BytesToPages(0, 1000, 64<<10); err == nil {
		t.Error("unaligned length accepted")
	}
	if _, err := BytesToPages(0, 0, 64<<10); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := BytesToPages(0, 64, 100); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
}

func TestNodeKeyHashDisperses(t *testing.T) {
	seen := map[uint64]bool{}
	for v := Version(1); v <= 64; v++ {
		for s := uint64(0); s < 16; s++ {
			k := NodeKey{Blob: 1, Version: v, Range: NodeRange{s, 1}}
			h := k.Hash()
			if seen[h] {
				t.Fatalf("hash collision at %+v", k)
			}
			seen[h] = true
		}
	}
}

func BenchmarkBuild128PageWrite(b *testing.B) {
	const total = 1 << 24 // 1 TB at 64 KB pages
	wr := PageRange{12345 * 128, 128}
	borders := Borders(total, wr)
	ivm, _ := NewIntervalVersionMap(total)
	ivm.ResolveBorders(borders)
	resolve := BorderResolver(borders)
	leaf := func(p uint64) (LeafData, error) {
		return LeafData{Write: 1, RelPage: uint32(p - wr.First)}, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(1, 5, total, wr, resolve, leaf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNodeStripeRefRoundTrip(t *testing.T) {
	leaf := Node{
		Key: NodeKey{Blob: 3, Version: 9, Range: NodeRange{5, 1}},
		Leaf: &LeafData{
			Write: 77, RelPage: 5, Providers: []uint32{2}, Checksum: 0xfeed,
			Stripe: &StripeRef{
				K: 4, M: 2, FirstRel: 4, ParityRel0: 1<<31 | 2,
				Provs: []uint32{2, 3, 4, 5, 6, 7},
				Sums:  []uint64{1, 2, 3, 4, 5, 6},
			},
		},
	}
	got, err := decodeOne(encodeOne(leaf), leaf.Key)
	if err != nil {
		t.Fatal(err)
	}
	s := got.Leaf.Stripe
	if s == nil || s.K != 4 || s.M != 2 || s.FirstRel != 4 || s.ParityRel0 != 1<<31|2 ||
		len(s.Provs) != 6 || s.Provs[5] != 7 || len(s.Sums) != 6 || s.Sums[5] != 6 {
		t.Fatalf("stripe round-trip = %+v", s)
	}
	// Slot addressing both ways.
	if s.SlotRel(1) != 5 || s.SlotRel(4) != 1<<31|2 || s.SlotRel(5) != 1<<31|3 {
		t.Errorf("SlotRel = %d, %d, %d", s.SlotRel(1), s.SlotRel(4), s.SlotRel(5))
	}
	if s.SlotOf(5) != 1 || s.SlotOf(1<<31|3) != 5 || s.SlotOf(99) != -1 {
		t.Errorf("SlotOf = %d, %d, %d", s.SlotOf(5), s.SlotOf(1<<31|3), s.SlotOf(99))
	}

	// A ref whose slice lengths disagree with its geometry is rejected.
	leaf.Leaf.Stripe.Provs = leaf.Leaf.Stripe.Provs[:5]
	if _, err := decodeOne(encodeOne(leaf), leaf.Key); err == nil {
		t.Error("short Provs slice not rejected")
	}
}
