package meta

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// forest is an in-memory stand-in for the metadata providers: every built
// node stored by key. It lets the test traverse trees exactly the way a
// reading client would, without any networking.
type forest struct {
	total uint64
	nodes map[NodeKey]*Node
}

func newForest(total uint64) *forest {
	return &forest{total: total, nodes: make(map[NodeKey]*Node)}
}

func (f *forest) store(ns []Node) {
	for i := range ns {
		n := ns[i]
		if _, dup := f.nodes[n.Key]; dup {
			// Write-once store: first wins (matches dht.Store semantics).
			continue
		}
		f.nodes[n.Key] = &n
	}
}

// resolvePage walks version v's tree down to the leaf covering page p.
// It returns (leaf, true) or (zero, false) when the path hits the
// implicit zero subtree.
func (f *forest) resolvePage(t *testing.T, blob uint64, v Version, p uint64) (LeafData, bool) {
	t.Helper()
	if v == ZeroVersion {
		return LeafData{}, false
	}
	cur := NodeKey{Blob: blob, Version: v, Range: NodeRange{0, f.total}}
	for {
		n, ok := f.nodes[cur]
		if !ok {
			t.Fatalf("missing node %+v while resolving page %d of v%d", cur, p, v)
		}
		if n.IsLeaf() {
			return *n.Leaf, true
		}
		left, right := n.Key.Range.Children()
		var childRange NodeRange
		var childVer Version
		if left.Contains(p) {
			childRange, childVer = left, n.LeftVer
		} else {
			childRange, childVer = right, n.RightVer
		}
		if childVer == ZeroVersion {
			return LeafData{}, false
		}
		cur = NodeKey{Blob: blob, Version: childVer, Range: childRange}
	}
}

// flatModel tracks, per version, which write owns each page — the
// specification the tree forest must match.
type flatModel struct {
	total    uint64
	byVer    []([]uint64) // byVer[v][p] = write id owning page p at version v (0 = zero)
	relByVer []([]uint32)
}

func newFlatModel(total uint64) *flatModel {
	m := &flatModel{total: total}
	m.byVer = append(m.byVer, make([]uint64, total)) // version 0: zeros
	m.relByVer = append(m.relByVer, make([]uint32, total))
	return m
}

func (m *flatModel) applyWrite(wr PageRange, writeID uint64) {
	prev := m.byVer[len(m.byVer)-1]
	prevRel := m.relByVer[len(m.relByVer)-1]
	next := append([]uint64(nil), prev...)
	nextRel := append([]uint32(nil), prevRel...)
	for p := wr.First; p < wr.End(); p++ {
		next[p] = writeID
		nextRel[p] = uint32(p - wr.First)
	}
	m.byVer = append(m.byVer, next)
	m.relByVer = append(m.relByVer, nextRel)
}

// TestWeavingOracle drives the full write pipeline (border resolution,
// interval map update, tree build) for a random workload and then
// verifies every page of every version resolves to exactly the write the
// flat model says — i.e. each snapshot equals the successive application
// of all patches up to it (the paper's global serializability property).
func TestWeavingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		total := uint64(1) << (rng.Intn(6) + 2) // 4..128 pages
		const blobID = 42
		f := newForest(total)
		model := newFlatModel(total)
		ivm, err := NewIntervalVersionMap(total)
		if err != nil {
			t.Fatal(err)
		}

		const numWrites = 40
		for v := Version(1); v <= numWrites; v++ {
			first := uint64(rng.Intn(int(total)))
			count := uint64(rng.Intn(int(total-first))) + 1
			wr := PageRange{first, count}
			writeID := uint64(1000 + v)

			borders := Borders(total, wr)
			ivm.ResolveBorders(borders)
			ivm.Assign(wr, v)
			nodes, err := Build(blobID, v, total, wr, BorderResolver(borders),
				func(p uint64) (LeafData, error) {
					return LeafData{Write: writeID, RelPage: uint32(p - wr.First)}, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			f.store(nodes)
			model.applyWrite(wr, writeID)
		}

		for v := Version(0); v <= numWrites; v++ {
			for p := uint64(0); p < total; p++ {
				leaf, ok := f.resolvePage(t, blobID, v, p)
				wantWrite := model.byVer[v][p]
				if !ok {
					if wantWrite != 0 {
						t.Fatalf("trial %d: v%d page %d resolved to zero, want write %d",
							trial, v, p, wantWrite)
					}
					continue
				}
				if leaf.Write != wantWrite {
					t.Fatalf("trial %d: v%d page %d resolved to write %d, want %d",
						trial, v, p, leaf.Write, wantWrite)
				}
				if leaf.RelPage != model.relByVer[v][p] {
					t.Fatalf("trial %d: v%d page %d rel = %d, want %d",
						trial, v, p, leaf.RelPage, model.relByVer[v][p])
				}
			}
		}
	}
}

// TestWeavingOutOfOrderMetadataWrites simulates the concurrency scenario
// of paper §IV.C: several writers get versions assigned in order, but
// store their metadata in a DIFFERENT order (later versions land first).
// Because border versions were precomputed at assignment time, the final
// forest must still resolve identically.
func TestWeavingOutOfOrderMetadataWrites(t *testing.T) {
	const total = 64
	const blobID = 7
	rng := rand.New(rand.NewSource(5))

	ivm, _ := NewIntervalVersionMap(total)
	model := newFlatModel(total)
	f := newForest(total)

	type pendingBuild struct {
		v     Version
		nodes []Node
	}
	var builds []pendingBuild

	const numWrites = 25
	for v := Version(1); v <= numWrites; v++ {
		first := uint64(rng.Intn(total))
		count := uint64(rng.Intn(int(total-first))) + 1
		wr := PageRange{first, count}
		writeID := uint64(2000 + v)

		// Version assignment (serialized at the version manager):
		borders := Borders(total, wr)
		ivm.ResolveBorders(borders)
		ivm.Assign(wr, v)

		// Metadata construction (fully parallel, isolated):
		nodes, err := Build(blobID, v, total, wr, BorderResolver(borders),
			func(p uint64) (LeafData, error) {
				return LeafData{Write: writeID, RelPage: uint32(p - wr.First)}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		builds = append(builds, pendingBuild{v: v, nodes: nodes})
		model.applyWrite(wr, writeID)
	}

	// Store metadata in random order — writers racing to the DHT.
	rng.Shuffle(len(builds), func(i, j int) { builds[i], builds[j] = builds[j], builds[i] })
	for _, b := range builds {
		f.store(b.nodes)
	}

	for v := Version(0); v <= numWrites; v++ {
		for p := uint64(0); p < total; p++ {
			leaf, ok := f.resolvePage(t, blobID, v, p)
			want := model.byVer[v][p]
			if (!ok && want != 0) || (ok && leaf.Write != want) {
				t.Fatalf("v%d page %d: got (%v,%v), want write %d", v, p, leaf, ok, want)
			}
		}
	}
}

// TestWeavingSharing verifies the space-efficiency claim: a small patch
// on a huge blob creates O(patch + log) nodes, sharing everything else
// with earlier versions.
func TestWeavingSharing(t *testing.T) {
	const total = 1 << 20
	ivm, _ := NewIntervalVersionMap(total)

	full := PageRange{0, total}
	ivm.ResolveBorders(nil)
	ivm.Assign(full, 1)

	patch := PageRange{12345, 4}
	borders := Borders(total, patch)
	ivm.ResolveBorders(borders)
	ivm.Assign(patch, 2)
	nodes, err := Build(1, 2, total, patch, BorderResolver(borders),
		func(p uint64) (LeafData, error) { return LeafData{Write: 9}, nil })
	if err != nil {
		t.Fatal(err)
	}
	// 4 pages in a 2^20-page tree: at most ~2*height nodes.
	if max := 2 * bits.Len64(total); len(nodes) > max {
		t.Errorf("small patch created %d nodes, want <= %d", len(nodes), max)
	}
	// All borders must resolve to version 1.
	for _, b := range borders {
		if b.Ver != 1 {
			t.Errorf("border %v = v%d, want v1", b.Child, b.Ver)
		}
	}
}

func ExampleBuild() {
	// A 4-page blob: version 1 wrote everything, version 2 patches page 1
	// (the scenario of the paper's Figure 2b).
	const total = 4
	ivm, _ := NewIntervalVersionMap(total)
	ivm.Assign(PageRange{0, 4}, 1)

	wr := PageRange{1, 1}
	borders := Borders(total, wr)
	ivm.ResolveBorders(borders)
	ivm.Assign(wr, 2)

	nodes, _ := Build(1, 2, total, wr, BorderResolver(borders),
		func(p uint64) (LeafData, error) { return LeafData{Write: 200, RelPage: 0}, nil })
	for _, n := range nodes {
		if n.IsLeaf() {
			fmt.Printf("leaf %v -> write %d\n", n.Key.Range, n.Leaf.Write)
		} else {
			fmt.Printf("node %v children v%d,v%d\n", n.Key.Range, n.LeftVer, n.RightVer)
		}
	}
	// Output:
	// node (0,4) children v2,v1
	// node (0,2) children v1,v2
	// leaf (1,1) -> write 200
}
