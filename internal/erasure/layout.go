package erasure

// Stripe layout (docs/erasure.md §3). A write of n pages in rs(k,m)
// mode is cut into ceil(n/k) stripes of k consecutive page slots; a
// final short stripe simply uses a smaller k' = n mod k (the codec
// accepts any geometry, and a self-describing per-stripe k keeps short
// writes from paying zero-padding transfers). Each stripe's m parity
// pages are stored under the same (blob, write) key as its data pages,
// in the parity half of the rel-page space: parity j of stripe s lives
// at rel = ParityFlag | s*m + j. Data writes are bounded well below
// 2^31 pages, so the flag bit can never collide with a data rel.

// ParityFlag marks parity slots in a write's rel-page space. Data pages
// of a write occupy rels [0, n); parity pages occupy
// ParityFlag | [0, ceil(n/k)*m).
const ParityFlag uint32 = 1 << 31

// ParityRel returns the rel-page of parity shard j of stripe s under m
// parity shards per stripe.
func ParityRel(stripe uint32, j, m int) uint32 {
	return ParityFlag | (stripe*uint32(m) + uint32(j))
}

// NumStripes returns how many stripes a write of n pages forms under k
// data shards per stripe.
func NumStripes(n uint64, k int) uint64 {
	return (n + uint64(k) - 1) / uint64(k)
}

// StripeWidth returns the data shard count k' of stripe s of an n-page
// write under k data shards per stripe: k for full stripes, n mod k for
// a short final stripe.
func StripeWidth(s uint64, n uint64, k int) int {
	first := s * uint64(k)
	if rem := n - first; rem < uint64(k) {
		return int(rem)
	}
	return k
}
