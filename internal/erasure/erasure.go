// Package erasure implements Reed-Solomon erasure coding of page groups,
// the one redundancy scheme of the store (normative spec:
// docs/erasure.md). A blob in rs(k,m) mode groups each k consecutive
// page slots of a write into a stripe, computes m parity pages over
// them, and spreads the k+m shards over k+m distinct data providers.
// Any k surviving shards reconstruct the rest, so the stripe tolerates m
// provider losses at a storage overhead of (k+m)/k — e.g. rs(4,2)
// matches rs(1,1)'s fault tolerance at 1.5x instead of 2x. At k = 1
// every parity row is all ones: an rs(1, r-1) stripe is a page and its
// r-1 copies, which is replication.
//
// The codec is a systematic construction over GF(2^8): the first k rows
// of the encode matrix are the identity (data shards are stored
// verbatim — reads in the healthy path never touch the codec), and the
// m parity rows are a Cauchy matrix C[i][j] = inv(x_i XOR y_j), with
// distinct field points x_i = k+i, y_j = j, whose column j is scaled by
// inv(C[0][j]) so that parity row 0 is all ones. Every square submatrix
// of a Cauchy matrix is invertible, and scaling a column by a non-zero
// constant keeps it so; with the identity rows the construction is MDS:
// any k of the k+m shards recover the stripe. The first parity shard is
// the XOR of the data, and under m = 1 so is the decode of one lost
// shard.
//
// Parity pages are ordinary pages to the provider layer: they are keyed
// (blob, write, rel) like data pages, with parity slots carved out of
// the high half of the rel-page space (ParityFlag). Every PageStore
// backend therefore stores, serves, repairs and garbage-collects parity
// without knowing it exists.
package erasure

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"sync"
)

// Shard-count limits: GF(2^8) gives 256 distinct evaluation points, so
// k+m may not exceed 256.
const maxShards = 256

// Errors returned by the codec.
var (
	// ErrTooFewShards is returned by Reconstruct when fewer than k
	// shards survive — the stripe is lost.
	ErrTooFewShards = errors.New("erasure: fewer than k shards survive")
	// ErrShardSize is returned when shards have mismatched or zero sizes.
	ErrShardSize = errors.New("erasure: shard size mismatch")
)

// gfExp and gfLog are the exponential and logarithm tables of GF(2^8)
// under the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d). gfExp is
// doubled so products of two logs index without a modulo.
var (
	gfExp [512]byte
	gfLog [256]int32
	// gfMulTable[c][x] = c*x in GF(2^8); 64 KB, built once, makes the
	// encode/decode inner loops a single table lookup per byte.
	gfMulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = int32(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := 1; c < 256; c++ {
		for x := 1; x < 256; x++ {
			gfMulTable[c][x] = gfExp[gfLog[c]+gfLog[x]]
		}
	}
}

// gfMul multiplies in GF(2^8).
func gfMul(a, b byte) byte { return gfMulTable[a][b] }

// gfInv returns the multiplicative inverse of a non-zero element.
func gfInv(a byte) byte { return gfExp[255-gfLog[a]] }

// Code is an RS(k,m) codec: k data shards, m parity shards. It is
// immutable and safe for concurrent use.
type Code struct {
	k, m int
	// matrix is the (k+m)xk systematic encode matrix: shard i is the
	// dot product of row i with the k data shards. Rows [0,k) are the
	// identity, rows [k,k+m) the column-scaled Cauchy parity rows (row k
	// all ones).
	matrix [][]byte
}

// New builds an RS(k,m) codec. 1 <= k, 0 <= m, k+m <= 256. At k = 1
// every parity row is all ones, so each parity shard is a copy of the
// one data shard: rs(1, m) is replication at 1+m copies, and rs(1, 0)
// a single copy.
func New(k, m int) (*Code, error) {
	// k and m are bounded one by one before they are added: a huge k
	// would otherwise wrap k+m negative and past the check.
	if k < 1 || m < 0 || k > maxShards || m > maxShards || k+m > maxShards {
		return nil, fmt.Errorf("erasure: invalid geometry rs(%d,%d): need k>=1, m>=0, k+m<=%d", k, m, maxShards)
	}
	mat := make([][]byte, k+m)
	for i := range mat {
		mat[i] = make([]byte, k)
	}
	for i := 0; i < k; i++ {
		mat[i][i] = 1
	}
	for j := 0; j < k; j++ {
		// Column j of the Cauchy block is inv((k+i) ^ j); scaling it by
		// the inverse of its row-0 entry, (k ^ j), makes that entry 1.
		// Any nonzero coefficient is MDS at k = 1, where 1 is the copy.
		scale := byte(k) ^ byte(j)
		for i := 0; i < m; i++ {
			mat[k+i][j] = 1
			if k > 1 {
				mat[k+i][j] = gfMul(gfInv(byte(k+i)^byte(j)), scale)
			}
		}
	}
	return &Code{k: k, m: m, matrix: mat}, nil
}

var (
	codecMu    sync.Mutex
	codecCache = make(map[[2]int]*Code)
)

// Cached returns a shared codec for the geometry; codecs are immutable,
// so the read/write/repair hot paths reuse one matrix per (k,m) instead
// of rebuilding it per stripe.
func Cached(k, m int) (*Code, error) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if c, ok := codecCache[[2]int{k, m}]; ok {
		return c, nil
	}
	c, err := New(k, m)
	if err != nil {
		return nil, err
	}
	codecCache[[2]int{k, m}] = c
	return c, nil
}

// K returns the data shard count.
func (c *Code) K() int { return c.k }

// M returns the parity shard count.
func (c *Code) M() int { return c.m }

// MatrixRow exposes one encode-matrix row (tests pin the golden matrix
// so the construction can never silently change).
func (c *Code) MatrixRow(i int) []byte {
	return append([]byte(nil), c.matrix[i]...)
}

// mulAdd accumulates dst ^= coef*src. A coefficient of 1 — every entry
// of the first parity row, and of an m = 1 decode — is a plain XOR,
// done by the standard library's vectorised XORBytes.
func mulAdd(dst, src []byte, coef byte) {
	switch coef {
	case 0:
	case 1:
		subtle.XORBytes(dst, dst, src)
	default:
		tbl := &gfMulTable[coef]
		for i, s := range src {
			dst[i] ^= tbl[s]
		}
	}
}

// Encode computes the m parity shards of k equal-length data shards.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("erasure: encode got %d data shards, codec is rs(%d,%d)", len(data), c.k, c.m)
	}
	size := len(data[0])
	for _, d := range data {
		if len(d) != size || size == 0 {
			return nil, ErrShardSize
		}
	}
	parity := make([][]byte, c.m)
	for i := range parity {
		parity[i] = make([]byte, size)
		row := c.matrix[c.k+i]
		for j, src := range data {
			mulAdd(parity[i], src, row[j])
		}
	}
	return parity, nil
}

// Reconstruct fills in the missing (nil) entries of a full shard slice:
// shards[0:k] are data, shards[k:k+m] parity. Any k present shards
// recover all the rest; fewer returns ErrTooFewShards. Present shards
// are never modified; reconstructed ones are freshly allocated.
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("erasure: reconstruct got %d shards, codec is rs(%d,%d)", len(shards), c.k, c.m)
	}
	size, present := 0, 0
	for _, s := range shards {
		if s == nil {
			continue
		}
		if size == 0 {
			size = len(s)
		}
		if len(s) != size || size == 0 {
			return ErrShardSize
		}
		present++
	}
	if present < c.k {
		return fmt.Errorf("%w: %d of %d present, need %d", ErrTooFewShards, present, c.k+c.m, c.k)
	}

	dataMissing := false
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			dataMissing = true
			break
		}
	}
	if dataMissing {
		// Decode: take the encode-matrix rows of the first k present
		// shards, invert them, and multiply the present shards back
		// through the inverse to recover every data shard.
		rows := make([]int, 0, c.k)
		for i := 0; i < c.k+c.m && len(rows) < c.k; i++ {
			if shards[i] != nil {
				rows = append(rows, i)
			}
		}
		sub := make([][]byte, c.k)
		for i, r := range rows {
			sub[i] = append([]byte(nil), c.matrix[r]...)
		}
		inv, err := invert(sub)
		if err != nil {
			return err // unreachable for a Cauchy construction
		}
		for i := 0; i < c.k; i++ {
			if shards[i] != nil {
				continue
			}
			out := make([]byte, size)
			for j, r := range rows {
				mulAdd(out, shards[r], inv[i][j])
			}
			shards[i] = out
		}
	}
	// Data is complete: recompute any missing parity directly.
	for i := 0; i < c.m; i++ {
		if shards[c.k+i] != nil {
			continue
		}
		out := make([]byte, size)
		row := c.matrix[c.k+i]
		for j := 0; j < c.k; j++ {
			mulAdd(out, shards[j], row[j])
		}
		shards[c.k+i] = out
	}
	return nil
}

// invert returns the inverse of a square matrix over GF(2^8) by
// Gauss-Jordan elimination. The input is consumed.
func invert(m [][]byte) ([][]byte, error) {
	n := len(m)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errors.New("erasure: singular decode matrix")
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if d := m[col][col]; d != 1 {
			di := gfInv(d)
			for j := 0; j < n; j++ {
				m[col][j] = gfMul(m[col][j], di)
				inv[col][j] = gfMul(inv[col][j], di)
			}
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for j := 0; j < n; j++ {
				m[r][j] ^= gfMul(f, m[col][j])
				inv[r][j] ^= gfMul(f, inv[col][j])
			}
		}
	}
	return inv, nil
}

// Redundancy names a deployment's (or blob's) page redundancy scheme,
// rs(K,M): every write is cut into stripes of K data pages and M parity
// pages on K+M distinct providers. Replication at r copies is rs(1,
// r-1), and rs(1,0) keeps a single copy. The zero value is the unset
// mode: a client that leaves it unset defers to the mode the provider
// manager advertises, and a deployment that leaves it unset advertises
// rs(1,0).
type Redundancy struct {
	K int // data shards per stripe
	M int // parity shards per stripe
}

// Shards returns K+M, the provider group size of one stripe.
func (r Redundancy) Shards() int { return r.K + r.M }

// Validate checks the geometry; the unset zero value is valid.
func (r Redundancy) Validate() error {
	if r == (Redundancy{}) {
		return nil
	}
	_, err := New(r.K, r.M)
	return err
}

// String renders the mode in the form ParseRedundancy accepts.
func (r Redundancy) String() string { return fmt.Sprintf("rs(%d,%d)", r.K, r.M) }

var rsModeRE = regexp.MustCompile(`^rs\((\d+),(\d+)\)$`)

// ParseRedundancy parses "rs(k,m)" (e.g. "rs(4,2)", or "rs(1,1)" for
// two copies). The empty string is the unset mode.
func ParseRedundancy(s string) (Redundancy, error) {
	if s == "" {
		return Redundancy{}, nil
	}
	m := rsModeRE.FindStringSubmatch(s)
	if m == nil {
		return Redundancy{}, fmt.Errorf("erasure: bad redundancy mode %q (want \"rs(k,m)\")", s)
	}
	k, errK := strconv.Atoi(m[1])
	p, errM := strconv.Atoi(m[2])
	if err := errors.Join(errK, errM); err != nil {
		return Redundancy{}, fmt.Errorf("erasure: bad redundancy mode %q: %w", s, err)
	}
	r := Redundancy{K: k, M: p}
	if _, err := New(k, p); err != nil {
		return Redundancy{}, err
	}
	return r, nil
}
