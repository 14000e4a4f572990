// Package gc implements version garbage collection — the extension the
// paper defers to future work ("we also intend to address the issue of
// garbage collection"), with the paper's framing that "no page is deleted
// from the system [at write time]: the previous version of the pages
// remain available ... until some garbage collection is ordered by the
// client".
//
// The collector is a mark-and-sweep over the version forest:
//
//   - MARK: walk the metadata tree of every published version >= the
//     keep horizon. Shared subtrees are visited once (the trees of
//     consecutive versions overlap heavily by design). Every visited
//     node key and every (write, page) reference of a visited leaf is
//     live.
//   - SWEEP: for every write in the history below the horizon, delete
//     the stored metadata blocks none of whose nodes is marked (node
//     and block keys are recomputable from the write's extent) and
//     unmarked pages. Page deletions are broadcast to all
//     data providers, which makes the sweep robust to orphaned pages
//     left behind by torn (repaired) writes whose placement was never
//     recorded anywhere.
//
// Safety contract: the caller guarantees no reader is using versions
// below the horizon, and the horizon is at most the latest published
// version. In-flight writers are safe: any old subtree an unpublished
// version can reference is, by the border-resolution rule, also
// referenced by a published version at or above the horizon, and is
// therefore marked.
//
// Caching note: clients with warm metadata caches may keep resolving a
// collected version from cache until entries evict; the bytes served are
// still correct (nodes and pages are immutable) as long as the cached
// leaves point at surviving pages — which the safety contract's
// "no readers below the horizon" clause is precisely there to ensure.
package gc

import (
	"context"
	"errors"
	"fmt"

	"blob/internal/core"
	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/mstore"
	"blob/internal/provider"
	"blob/internal/rpc"
)

// Report summarizes one collection run.
type Report struct {
	// Horizon is the oldest version kept readable.
	Horizon meta.Version
	// VersionsCollected counts history records swept.
	VersionsCollected int
	// NodesDeleted counts metadata tree nodes removed (in whole blocks).
	NodesDeleted int
	// PagesDeleted counts pages — data and parity — removed across
	// providers.
	PagesDeleted int
	// NodesKept counts candidate nodes retained: those of every block
	// with a marked node.
	NodesKept int
}

// Collector garbage-collects blob versions.
type Collector struct {
	c *core.Client
}

// New creates a Collector operating through an existing client.
func New(c *core.Client) *Collector { return &Collector{c: c} }

// ErrBadHorizon is returned when the horizon exceeds the latest
// published version.
var ErrBadHorizon = errors.New("gc: horizon above latest published version")

// Collect removes everything only reachable from versions strictly below
// keepFrom. After collection, reads of versions >= keepFrom (and of
// version 0 ranges never overwritten) behave exactly as before; reads of
// collected versions fail with a missing-node error.
func (g *Collector) Collect(ctx context.Context, blobID uint64, keepFrom meta.Version) (Report, error) {
	rep := Report{Horizon: keepFrom}
	vm := g.c.VersionManager()
	info, err := vm.Info(ctx, blobID)
	if err != nil {
		return rep, err
	}
	latest := info.LatestPublished
	if keepFrom > latest {
		return rep, fmt.Errorf("%w: keepFrom %d > latest %d", ErrBadHorizon, keepFrom, latest)
	}
	if keepFrom <= 1 {
		return rep, nil // nothing below the horizon can exist
	}

	history, err := vm.History(ctx, blobID, 0, latest)
	if err != nil {
		return rep, err
	}

	// MARK.
	markedNodes := make(map[meta.NodeKey]bool)
	markedPages := make(map[pageRef]bool)
	parity := make(map[uint64]int) // a write's parity slots per stripe, off its marked leaves
	ms := g.c.Meta()
	for v := keepFrom; v <= latest; v++ {
		if err := g.mark(ctx, ms, blobID, v, info.TotalPages, markedNodes, markedPages, parity); err != nil {
			return rep, fmt.Errorf("gc: mark v%d: %w", v, err)
		}
	}

	// SWEEP.
	providers, err := g.c.AllProviders(ctx)
	if err != nil {
		return rep, err
	}
	for _, rec := range history {
		if rec.Version >= keepFrom {
			continue
		}
		rep.VersionsCollected++

		// Sweep this write's tree nodes by stored block: one with any
		// marked node is kept whole (its unmarked nodes are the price
		// of packing), one with none dies.
		holds := make(map[meta.BlockKey]int) // nodes per block
		live := make(map[meta.BlockKey]bool)
		for _, r := range meta.WriteSet(info.TotalPages, rec.Range) {
			key := meta.NodeKey{Blob: blobID, Version: rec.Version, Range: r}
			block := key.Block()
			holds[block]++
			live[block] = live[block] || markedNodes[key]
		}
		for block, nodes := range holds {
			if live[block] {
				rep.NodesKept += nodes
				continue
			}
			if err := ms.DeleteBlock(ctx, block); err != nil {
				return rep, fmt.Errorf("gc: delete block %+v: %w", block, err)
			}
			rep.NodesDeleted += nodes
		}

		// Sweep this write's pages: every rel not referenced by a marked
		// leaf dies, broadcast to all providers (covers orphans from
		// torn writes whose placement was never recorded).
		var deadRels []uint32
		for rel := uint32(0); uint64(rel) < rec.Range.Count; rel++ {
			if !markedPages[pageRef{write: rec.WriteID, rel: rel}] {
				deadRels = append(deadRels, rel)
			}
		}
		// Parity pages (docs/erasure.md) live in the high half of the rel
		// space and are referenced by no leaf, so sweep them explicitly —
		// a stripe whose every data page died takes its parity along, and
		// under rs(1,m) that is the page's copies. Partially-dead stripes
		// keep parity, or their surviving pages would lose
		// reconstructability. A write's stripes share one parity count,
		// read off a marked leaf: an rs(1,m) write may have placed fewer
		// than m copies. A write with no marked leaf has every stripe
		// dead, and the blob's m covers all of its parity rels.
		k := uint64(max(info.Redundancy.K, 1))
		m, ok := parity[rec.WriteID]
		if !ok {
			m = info.Redundancy.M
		}
		for s := uint64(0); s < erasure.NumStripes(rec.Range.Count, int(k)); s++ {
			allDead := true
			for rel := s * k; rel < (s+1)*k && rel < rec.Range.Count; rel++ {
				if markedPages[pageRef{write: rec.WriteID, rel: uint32(rel)}] {
					allDead = false
					break
				}
			}
			if allDead {
				for j := 0; j < m; j++ {
					deadRels = append(deadRels, erasure.ParityRel(uint32(s), j, m))
				}
			}
		}
		if len(deadRels) == 0 {
			continue
		}
		segs := [][]byte{provider.EncodeDeletePages(blobID, rec.WriteID, deadRels)}
		pend := make([]*rpc.Pending, 0, len(providers))
		for _, p := range providers {
			pend = append(pend, g.c.Pool().Go(ctx, p.Addr, provider.MDeletePages, segs, nil))
		}
		for _, p := range pend {
			resp, err := p.Wait(ctx)
			if err != nil {
				return rep, fmt.Errorf("gc: delete pages of write %d: %w", rec.WriteID, err)
			}
			rep.PagesDeleted += decodeCount(resp)
		}
	}
	return rep, nil
}

type pageRef struct {
	write uint64
	rel   uint32
}

// mark walks version v's tree breadth-first, recording reachable node
// keys, leaf page references and each write's parity count. Already-marked subtrees are skipped, so
// the total work across all versions is proportional to the number of
// distinct stored nodes.
func (g *Collector) mark(ctx context.Context, ms *mstore.Client, blob uint64, v meta.Version,
	totalPages uint64, markedNodes map[meta.NodeKey]bool, markedPages map[pageRef]bool, parity map[uint64]int) error {

	if v == meta.ZeroVersion {
		return nil
	}
	frontier := []meta.NodeKey{meta.RootKey(blob, v, totalPages)}
	for len(frontier) > 0 {
		var fetch []meta.NodeKey
		for _, k := range frontier {
			if !markedNodes[k] {
				markedNodes[k] = true
				fetch = append(fetch, k)
			}
		}
		if len(fetch) == 0 {
			return nil
		}
		nodes, err := ms.FetchNodes(ctx, fetch)
		if err != nil {
			return err
		}
		var next []meta.NodeKey
		for _, k := range fetch {
			n := nodes[k]
			if n.IsLeaf() {
				if n.Leaf.Write != 0 {
					markedPages[pageRef{write: n.Leaf.Write, rel: n.Leaf.RelPage}] = true
					parity[n.Leaf.Write] = int(n.Leaf.Layout().M)
				}
				continue
			}
			left, right := n.Key.Range.Children()
			if n.LeftVer != meta.ZeroVersion {
				next = append(next, meta.NodeKey{Blob: blob, Version: n.LeftVer, Range: left})
			}
			if n.RightVer != meta.ZeroVersion {
				next = append(next, meta.NodeKey{Blob: blob, Version: n.RightVer, Range: right})
			}
		}
		frontier = next
	}
	return nil
}

func decodeCount(resp []byte) int {
	if len(resp) == 0 {
		return 0
	}
	// uvarint count
	n := 0
	shift := 0
	for _, b := range resp {
		n |= int(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		shift += 7
	}
	return n
}
