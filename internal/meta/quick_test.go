package meta

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// geometry is a quick-generatable tree geometry plus write extent.
type geometry struct {
	TotalLog uint8 // tree size = 2^(TotalLog%10 + 1)
	First    uint16
	Count    uint16
}

func (g geometry) normalize() (total uint64, wr PageRange) {
	total = uint64(1) << (g.TotalLog%10 + 1)
	first := uint64(g.First) % total
	count := uint64(g.Count)%(total-first) + 1
	return total, PageRange{First: first, Count: count}
}

// Generate implements quick.Generator for geometry.
func (geometry) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(geometry{
		TotalLog: uint8(r.Uint32()),
		First:    uint16(r.Uint32()),
		Count:    uint16(r.Uint32()),
	})
}

func TestQuickWriteSetAllIntersect(t *testing.T) {
	f := func(g geometry) bool {
		total, wr := g.normalize()
		for _, r := range WriteSet(total, wr) {
			if !wr.Intersects(r) {
				return false
			}
			if !IsPowerOfTwo(r.Size) || r.Start%r.Size != 0 {
				return false // misaligned node
			}
			if r.End() > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWriteSetLeafCountEqualsPages(t *testing.T) {
	f := func(g geometry) bool {
		total, wr := g.normalize()
		leaves := 0
		for _, r := range WriteSet(total, wr) {
			if r.IsLeaf() {
				leaves++
			}
		}
		return uint64(leaves) == wr.Count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBordersDisjointFromWrite(t *testing.T) {
	f := func(g geometry) bool {
		total, wr := g.normalize()
		for _, b := range Borders(total, wr) {
			if wr.Intersects(b.Child) {
				return false
			}
			l, r := b.Parent.Children()
			if b.Child != l && b.Child != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBuildNodeCountMatchesWriteSet(t *testing.T) {
	f := func(g geometry) bool {
		total, wr := g.normalize()
		borders := Borders(total, wr)
		for i := range borders {
			borders[i].Ver = 0
		}
		nodes, err := Build(1, 1, total, wr, BorderResolver(borders),
			func(p uint64) (LeafData, error) {
				return LeafData{Write: 1, RelPage: uint32(p - wr.First)}, nil
			})
		if err != nil {
			return false
		}
		return len(nodes) == CountWriteSet(total, wr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNodeEncodeDecode(t *testing.T) {
	f := func(blob, ver uint64, startRaw, sizeLog uint8, write uint64, rel uint32, provs []uint32, sum uint64, leaf bool) bool {
		if ver == 0 {
			ver = 1
		}
		size := uint64(1) << (sizeLog % 16)
		if leaf {
			size = 1
		} else if size == 1 {
			size = 2
		}
		start := (uint64(startRaw) % 16) * size
		n := Node{Key: NodeKey{Blob: blob, Version: ver, Range: NodeRange{Start: start, Size: size}}}
		if leaf {
			n.Leaf = &LeafData{Write: write, RelPage: rel, Providers: provs, Checksum: sum}
		} else {
			n.LeftVer = write
			n.RightVer = sum
		}
		got, err := decodeOne(encodeOne(n), n.Key)
		if err != nil {
			return false
		}
		if leaf {
			if got.Leaf == nil || got.Leaf.Write != write || got.Leaf.RelPage != rel ||
				got.Leaf.Checksum != sum || len(got.Leaf.Providers) != len(provs) {
				return false
			}
			for i := range provs {
				if got.Leaf.Providers[i] != provs[i] {
					return false
				}
			}
			return true
		}
		return got.LeftVer == write && got.RightVer == sum && got.Leaf == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickIVMapAgainstModel(t *testing.T) {
	type op struct {
		First, Count uint16
	}
	f := func(totalLog uint8, ops []op, qFirst, qCount uint16) bool {
		total := uint64(1) << (totalLog%8 + 1)
		ivm, err := NewIntervalVersionMap(total)
		if err != nil {
			return false
		}
		model := newModelMap(total)
		for i, o := range ops {
			first := uint64(o.First) % total
			count := uint64(o.Count)%(total-first) + 1
			wr := PageRange{First: first, Count: count}
			v := Version(i + 1)
			ivm.Assign(wr, v)
			model.assign(wr, v)
		}
		qf := uint64(qFirst) % total
		qc := uint64(qCount)%(total-qf) + 1
		q := PageRange{First: qf, Count: qc}
		return ivm.MaxIntersectingPages(q) == model.maxIntersecting(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
