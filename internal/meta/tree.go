package meta

import "fmt"

// This file implements the tree construction of paper §III.C: a WRITE
// producing version v builds "the smallest (possibly incomplete) binary
// tree of the same height as the initial tree such that its leaves are
// exactly the leaves covering the pages of the patched segment", then
// weaves it into the previous version's tree by completing each border
// node with a reference to the corresponding child of an earlier
// version.
//
// In our representation the weaving is implicit: every created interior
// node stores the version number of each child. A child that intersects
// the written segment is version v itself; a child that does not (the
// missing child of a border node) is resolved to the latest version
// whose write intersected that child's range — computed by the version
// manager from its interval map (see Borders and internal/vmanager).

// Border is one border-node child: a range outside the written segment
// whose owning version must be resolved by the version manager.
type Border struct {
	// Parent is the created node whose child this is.
	Parent NodeRange
	// Child is the range the resolved version must cover.
	Child NodeRange
	// Ver is the resolved version (filled by the version manager).
	Ver Version
}

// walk visits, in deterministic pre-order (parent before children, left
// before right), every node range of the tree over totalPages that
// intersects wr. For interior nodes it reports each child range that does
// NOT intersect wr through the border callback.
func walk(totalPages uint64, wr PageRange, visit func(NodeRange), border func(parent, child NodeRange)) {
	var rec func(r NodeRange)
	rec = func(r NodeRange) {
		if !wr.Intersects(r) {
			return
		}
		if visit != nil {
			visit(r)
		}
		if r.IsLeaf() {
			return
		}
		left, right := r.Children()
		if wr.Intersects(left) {
			rec(left)
		} else if border != nil {
			border(r, left)
		}
		if wr.Intersects(right) {
			rec(right)
		} else if border != nil {
			border(r, right)
		}
	}
	rec(NodeRange{0, totalPages})
}

// WriteSet returns every node range a write of wr creates, in pre-order.
// The count is O(wr.Count + log2(totalPages)).
func WriteSet(totalPages uint64, wr PageRange) []NodeRange {
	var out []NodeRange
	walk(totalPages, wr, func(r NodeRange) { out = append(out, r) }, nil)
	return out
}

// Borders returns, in deterministic order, the border children of the
// partial tree a write of wr creates: the child ranges whose versions the
// version manager must resolve. Ver fields are left zero.
func Borders(totalPages uint64, wr PageRange) []Border {
	var out []Border
	walk(totalPages, wr, nil, func(parent, child NodeRange) {
		out = append(out, Border{Parent: parent, Child: child})
	})
	return out
}

// CountWriteSet returns how many nodes a write of wr creates, without
// allocating the list.
func CountWriteSet(totalPages uint64, wr PageRange) int {
	n := 0
	walk(totalPages, wr, func(NodeRange) { n++ }, nil)
	return n
}

// Build materializes every node of version v's partial tree for a write
// of wr. Border children are resolved through resolve (typically a map
// lookup over the Borders the version manager returned); leaf payloads
// come from leafFor, invoked with the absolute page index. The returned
// nodes are in pre-order.
//
// Build is pure computation: the caller stores the nodes through the
// metadata provider client. Crucially — this is the lock-free property of
// paper §IV.C — Build needs no view of other writers' trees: the resolve
// set was precomputed by the version manager at version-assignment time,
// so metadata construction proceeds in complete isolation even while
// earlier versions are still being written.
func Build(blob uint64, v Version, totalPages uint64, wr PageRange,
	resolve func(NodeRange) (Version, error),
	leafFor func(page uint64) (LeafData, error)) ([]Node, error) {

	if err := ValidateGeometry(totalPages, wr); err != nil {
		return nil, err
	}
	if v == ZeroVersion {
		return nil, fmt.Errorf("meta: cannot build tree for the zero version")
	}
	out := make([]Node, 0, CountWriteSet(totalPages, wr))
	var rec func(r NodeRange) error
	rec = func(r NodeRange) error {
		n := Node{Key: NodeKey{Blob: blob, Version: v, Range: r}}
		if r.IsLeaf() {
			leaf, err := leafFor(r.Start)
			if err != nil {
				return err
			}
			n.Leaf = &leaf
			out = append(out, n)
			return nil
		}
		left, right := r.Children()
		if wr.Intersects(left) {
			n.LeftVer = v
		} else {
			ver, err := resolve(left)
			if err != nil {
				return err
			}
			n.LeftVer = ver
		}
		if wr.Intersects(right) {
			n.RightVer = v
		} else {
			ver, err := resolve(right)
			if err != nil {
				return err
			}
			n.RightVer = ver
		}
		out = append(out, n)
		if wr.Intersects(left) {
			if err := rec(left); err != nil {
				return err
			}
		}
		if wr.Intersects(right) {
			if err := rec(right); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(NodeRange{0, totalPages}); err != nil {
		return nil, err
	}
	return out, nil
}

// BorderResolver converts a resolved border list into the resolve
// function Build expects. Unknown ranges are an error: they indicate the
// client and version manager disagree on tree geometry.
func BorderResolver(borders []Border) func(NodeRange) (Version, error) {
	m := make(map[NodeRange]Version, len(borders))
	for _, b := range borders {
		m[b.Child] = b.Ver
	}
	return func(r NodeRange) (Version, error) {
		v, ok := m[r]
		if !ok {
			return 0, fmt.Errorf("meta: no resolved version for border child %v", r)
		}
		return v, nil
	}
}
