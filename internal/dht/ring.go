// Package dht implements the distributed hash table the metadata
// providers form. The paper delegates metadata storage to BambooDHT; we
// substitute a one-hop design: every client caches the full membership
// view (obtained from a small directory service) and routes each key
// directly to its replicas via consistent hashing. For a cluster-scale
// deployment this matches how the paper's clients behave after lookup
// caching — the measured costs are per-node storage and network, not
// multi-hop routing — while keeping the same uniform dispersal of keys
// across providers. Which values sit next to each other on the ring is
// the key's business (meta.BlockKey.Hash places a subtree's blocks
// together), and what a stored value leads to is a hook's
// (Store.Follow): the package itself is a generic KV.
//
// Values are write-once: the first Put for a key wins and later Puts are
// acknowledged without overwriting. The segment-tree metadata is
// immutable and deterministically keyed, so first-wins semantics make
// replication retries and the version manager's writer-failure repair
// path safe by construction (see internal/vmanager).
package dht

import (
	"sort"

	"blob/internal/wire"
)

// NodeInfo identifies one DHT storage node.
type NodeInfo struct {
	// ID is the node's unique identity, assigned at registration.
	ID uint64
	// Addr is the node's RPC address.
	Addr string
}

// VNodesPerNode is the number of virtual points each physical node
// occupies on the hash ring. More points smooth out load imbalance.
const VNodesPerNode = 64

// Ring is an immutable consistent-hashing view over a membership set.
// Build a new Ring when membership changes; lookups are lock-free.
type Ring struct {
	nodes  []NodeInfo
	points []ringPoint // sorted by position
}

type ringPoint struct {
	pos  uint64
	node int // index into nodes
}

// NewRing constructs a ring over the given members. The node order does
// not matter; placement depends only on node IDs.
func NewRing(nodes []NodeInfo) *Ring {
	r := &Ring{nodes: append([]NodeInfo(nil), nodes...)}
	r.points = make([]ringPoint, 0, len(nodes)*VNodesPerNode)
	for i, n := range r.nodes {
		for v := 0; v < VNodesPerNode; v++ {
			r.points = append(r.points, ringPoint{
				pos:  wire.HashFields(n.ID, uint64(v)),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].pos != r.points[b].pos {
			return r.points[a].pos < r.points[b].pos
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Size returns the number of physical nodes.
func (r *Ring) Size() int { return len(r.nodes) }

// Nodes returns the membership the ring was built from.
func (r *Ring) Nodes() []NodeInfo { return r.nodes }

// ReplicasFor returns up to k distinct nodes responsible for key, in
// preference order (primary first). If fewer than k nodes exist, all
// nodes are returned.
func (r *Ring) ReplicasFor(key uint64, k int) []NodeInfo {
	return r.ReplicasForAppend(key, k, nil)
}

// ReplicasForAppend is ReplicasFor writing into dst[:0] — batched
// callers (MultiPut, MultiGet) resolve replicas for every key of a
// batch, and a fresh slice plus dedup map per key was a measurable
// slice of the metadata write path (docs/perf.md). Replication factors
// are tiny, so duplicates are weeded with a linear scan of the result.
func (r *Ring) ReplicasForAppend(key uint64, k int, dst []NodeInfo) []NodeInfo {
	if len(r.nodes) == 0 || k <= 0 {
		return nil
	}
	if k > len(r.nodes) {
		k = len(r.nodes)
	}
	// First point clockwise from the key's position.
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].pos >= key
	})
	out := dst[:0]
next:
	for n := 0; n < len(r.points) && len(out) < k; n++ {
		p := r.points[(i+n)%len(r.points)]
		cand := r.nodes[p.node]
		for _, have := range out {
			if have.Addr == cand.Addr {
				continue next
			}
		}
		out = append(out, cand)
	}
	return out
}

// Primary returns the single node responsible for key.
func (r *Ring) Primary(key uint64) (NodeInfo, bool) {
	reps := r.ReplicasFor(key, 1)
	if len(reps) == 0 {
		return NodeInfo{}, false
	}
	return reps[0], true
}
