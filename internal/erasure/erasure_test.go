package erasure

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// TestGFAxioms sanity-checks the field tables: multiplicative inverses
// and distributivity over a sample of elements.
func TestGFAxioms(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d,%d,%d", a, b, c)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("commutativity fails for %d,%d", a, b)
		}
	}
}

// TestRoundTripAllLossPatterns drops every subset of up to m shards of
// an rs(4,2) and an rs(3,3) stripe and reconstructs, byte-comparing the
// result against the originals.
func TestRoundTripAllLossPatterns(t *testing.T) {
	for _, geom := range []struct{ k, m int }{{4, 2}, {3, 3}, {1, 1}, {2, 1}} {
		c, err := New(geom.k, geom.m)
		if err != nil {
			t.Fatal(err)
		}
		n := geom.k + geom.m
		rng := rand.New(rand.NewSource(42))
		data := make([][]byte, geom.k)
		for i := range data {
			data[i] = make([]byte, 64)
			rng.Read(data[i])
		}
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		full := append(append([][]byte{}, data...), parity...)

		// Every loss mask with <= m bits set must reconstruct.
		for mask := 0; mask < 1<<n; mask++ {
			lost := 0
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					lost++
				}
			}
			if lost == 0 || lost > geom.m {
				continue
			}
			shards := make([][]byte, n)
			for i := range shards {
				if mask&(1<<i) == 0 {
					shards[i] = full[i]
				}
			}
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("rs(%d,%d) mask %b: %v", geom.k, geom.m, mask, err)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], full[i]) {
					t.Fatalf("rs(%d,%d) mask %b: shard %d differs", geom.k, geom.m, mask, i)
				}
			}
		}
	}
}

// TestMatrixEveryGeometry checks codec v2's construction on every
// geometry with k+m <= 12: parity row 0 (matrix row k) is all ones, every
// k-row subset of the (k+m)xk encode matrix inverts — exhaustively, which
// is the MDS property itself — and the first parity shard is the
// bytewise XOR of the data. Under m = 1 the decode of any one lost data
// shard is then an XOR of the survivors too: its row of the inverted
// survivor matrix is all ones.
func TestMatrixEveryGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 2; n <= 12; n++ {
		for k := 1; k < n; k++ {
			m := n - k
			c, err := New(k, m)
			if err != nil {
				t.Fatal(err)
			}
			if row := c.MatrixRow(k); !bytes.Equal(row, bytes.Repeat([]byte{1}, k)) {
				t.Fatalf("rs(%d,%d): parity row 0 = %v, want all ones", k, m, row)
			}
			for mask := 0; mask < 1<<n; mask++ {
				if bits.OnesCount(uint(mask)) != k {
					continue
				}
				sub := make([][]byte, 0, k)
				for r := 0; r < n; r++ {
					if mask&(1<<r) != 0 {
						sub = append(sub, c.MatrixRow(r))
					}
				}
				if _, err := invert(sub); err != nil {
					t.Fatalf("rs(%d,%d): rows %b do not invert: %v", k, m, mask, err)
				}
			}

			// 29 bytes: three 8-byte words and a tail for the XOR kernel.
			data := make([][]byte, k)
			xor := make([]byte, 29)
			for i := range data {
				data[i] = make([]byte, 29)
				rng.Read(data[i])
				for j, b := range data[i] {
					xor[j] ^= b
				}
			}
			parity, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(parity[0], xor) {
				t.Fatalf("rs(%d,%d): parity 0 is not the XOR of the data", k, m)
			}
			if m != 1 {
				continue
			}
			for lost := 0; lost < k; lost++ {
				sub := make([][]byte, 0, k)
				for r := 0; r <= k; r++ {
					if r != lost {
						sub = append(sub, c.MatrixRow(r))
					}
				}
				inv, err := invert(sub)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(inv[lost], bytes.Repeat([]byte{1}, k)) {
					t.Fatalf("rs(%d,1): decode row of lost shard %d = %v, want all ones (an XOR)", k, lost, inv[lost])
				}
			}
		}
	}
}

// TestNewRejectsHugeGeometry feeds New and ParseRedundancy shard counts
// whose sum overflows int or that are out of range one by one: each must
// be an error, never a panic (a wrapped k+m once slipped past the bound
// and reached make with a negative length).
func TestNewRejectsHugeGeometry(t *testing.T) {
	for _, g := range [][2]int{
		{math.MaxInt, 1}, {1, math.MaxInt}, {math.MaxInt, math.MaxInt},
		{math.MaxInt - 255, 256}, {math.MinInt, 1}, {1, math.MinInt},
		{257, 1}, {1, 256}, {256, 1}, {0, 1}, {1, -1},
	} {
		if c, err := New(g[0], g[1]); err == nil {
			t.Errorf("New(%d,%d) = rs(%d,%d), want an error", g[0], g[1], c.K(), c.M())
		}
	}
	for _, s := range []string{
		"rs(9223372036854775807,1)",
		"rs(1,9223372036854775807)",
		"rs(9223372036854775807,9223372036854775807)",
		"rs(99999999999999999999,1)",
		"rs(1,99999999999999999999)",
		"rs(257,1)",
		"rs(1,256)",
		"rs(256,1)",
	} {
		if r, err := ParseRedundancy(s); err == nil {
			t.Errorf("ParseRedundancy(%q) = %v, want an error", s, r)
		}
	}
	if r, err := ParseRedundancy("rs(255,1)"); err != nil || r.Shards() != 256 {
		t.Errorf("ParseRedundancy(rs(255,1)) = %v, %v; want the 256-shard geometry", r, err)
	}
}

// TestTooFewShards pins the failure mode past the MDS limit.
func TestTooFewShards(t *testing.T) {
	c, _ := New(4, 2)
	shards := make([][]byte, 6)
	shards[0] = make([]byte, 8)
	shards[1] = make([]byte, 8)
	shards[2] = make([]byte, 8)
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("reconstruct with 3 of 6 shards should fail")
	}
}

// TestGoldenMatrix pins the rs(4,2) encode matrix byte-for-byte: the
// stripe layout on disk depends on it, so it must never silently change
// (a different matrix would make existing parity undecodable).
func TestGoldenMatrix(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Codec v2 parity rows: inv((k+i) ^ j) * (k ^ j) for i in [0,2),
	// j in [0,4) — the Cauchy block with each column scaled by the
	// inverse of its row-0 entry, so row 0 is all ones.
	want := [][]byte{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
		{1, 1, 1, 1},
		{166, 70, 187, 123},
	}
	for i := range want {
		if got := c.MatrixRow(i); !bytes.Equal(got, want[i]) {
			t.Fatalf("matrix row %d = %v, want %v", i, got, want[i])
		}
	}
	// At k = 1 every parity row is all ones, so rs(1,m) parity is m
	// copies of the page: rs(1,0) one copy, rs(1,1) two, rs(1,2) three.
	for m, want := range [][][]byte{
		{{1}},
		{{1}, {1}},
		{{1}, {1}, {1}},
	} {
		c, err := New(1, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got := c.MatrixRow(i); !bytes.Equal(got, want[i]) {
				t.Fatalf("rs(1,%d) matrix row %d = %v, want %v", m, i, got, want[i])
			}
		}
	}
}

// TestGoldenEncoding pins an end-to-end parity vector: a fixed rs(4,2)
// stripe must always encode to these exact parity bytes. If the field
// polynomial, the table construction, or the matrix ever changes, this
// fails before any on-disk stripe becomes undecodable. Under codec v2
// the first parity is the bytewise XOR of the four data shards
// (0x00^0x10^0xf0^0xde = 0x3e, ...).
func TestGoldenEncoding(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{
		{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07},
		{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17},
		{0xf0, 0xe1, 0xd2, 0xc3, 0xb4, 0xa5, 0x96, 0x87},
		{0xde, 0xad, 0xbe, 0xef, 0x00, 0xff, 0x55, 0xaa},
	}
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(parity[0]) + "|" + hex.EncodeToString(parity[1])
	const want = "3e5c7c3ca44ad33d|506a687f3b44b1ce"
	if got != want {
		t.Fatalf("golden rs(4,2) parity drifted:\n got %s\nwant %s", got, want)
	}
}

// TestShortStripeGeometry exercises the per-stripe width helper and a
// short stripe round trip (k'=2 under nominal rs(4,2)).
func TestShortStripeGeometry(t *testing.T) {
	if n := NumStripes(10, 4); n != 3 {
		t.Fatalf("NumStripes(10,4) = %d", n)
	}
	if w := StripeWidth(2, 10, 4); w != 2 {
		t.Fatalf("StripeWidth(2,10,4) = %d", w)
	}
	if w := StripeWidth(1, 10, 4); w != 4 {
		t.Fatalf("StripeWidth(1,10,4) = %d", w)
	}
	c, err := New(2, 2) // the short stripe's own geometry
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{{1, 2, 3}, {4, 5, 6}}
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{nil, nil, parity[0], parity[1]}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[0], data[0]) || !bytes.Equal(shards[1], data[1]) {
		t.Fatal("short stripe reconstruct mismatch")
	}
}

// TestParityRelSpace pins the rel-page carving for parity slots.
func TestParityRelSpace(t *testing.T) {
	if r := ParityRel(0, 0, 2); r != ParityFlag {
		t.Fatalf("ParityRel(0,0,2) = %#x", r)
	}
	if r := ParityRel(3, 1, 2); r != ParityFlag|7 {
		t.Fatalf("ParityRel(3,1,2) = %#x", r)
	}
}

// TestParseRedundancy covers the mode grammar.
func TestParseRedundancy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Redundancy
		ok   bool
	}{
		{"", Redundancy{}, true}, // unset: defer to the advertised mode
		{"replicate", Redundancy{}, false},
		{"rs(4,2)", Redundancy{K: 4, M: 2}, true},
		{"rs(1,1)", Redundancy{K: 1, M: 1}, true},
		{"rs(1,0)", Redundancy{K: 1}, true},
		{"rs(4,0)", Redundancy{K: 4}, true},
		{"rs(0,2)", Redundancy{}, false},
		{"rs(200,100)", Redundancy{}, false}, // k+m > 256
		{"rs(4;2)", Redundancy{}, false},
		{"raid5", Redundancy{}, false},
	} {
		got, err := ParseRedundancy(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseRedundancy(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("ParseRedundancy(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	if s := (Redundancy{K: 4, M: 2}).String(); s != "rs(4,2)" {
		t.Fatalf("String() = %q", s)
	}
	if s := (Redundancy{K: 1}).String(); s != "rs(1,0)" {
		t.Fatalf("String() = %q", s)
	}
}

// benchGeometries are the microbenchmarked codecs: rs(2,1), the
// benchmark's ingest-write geometry (its parity is a plain XOR), and
// rs(4,2), whose second parity row takes the GF(2^8) table loop.
var benchGeometries = []struct{ k, m int }{{2, 1}, {4, 2}}

// benchStripe returns k data shards of 64 KiB pages with their parity.
func benchStripe(b *testing.B, k, m int) (*Code, [][]byte, [][]byte) {
	c, err := New(k, m)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, 64<<10)
		for j := range data[i] {
			data[i][j] = byte(i * j)
		}
	}
	parity, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(k) * 64 << 10)
	b.ReportAllocs()
	return c, data, parity
}

// BenchmarkEncode measures parity throughput at the default page size.
func BenchmarkEncode(b *testing.B) {
	for _, g := range benchGeometries {
		b.Run(fmt.Sprintf("rs(%d,%d)", g.k, g.m), func(b *testing.B) {
			c, data, _ := benchStripe(b, g.k, g.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReconstruct measures the degraded-read decode cost: the first
// m data shards lost from a stripe of 64 KiB pages.
func BenchmarkReconstruct(b *testing.B) {
	for _, g := range benchGeometries {
		b.Run(fmt.Sprintf("rs(%d,%d)", g.k, g.m), func(b *testing.B) {
			c, data, parity := benchStripe(b, g.k, g.m)
			shards := make([][]byte, g.k+g.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(shards, data)
				copy(shards[g.k:], parity)
				for j := 0; j < g.m; j++ {
					shards[j] = nil
				}
				if err := c.Reconstruct(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ExampleCode() {
	c, _ := New(4, 2)
	data := [][]byte{{1}, {2}, {3}, {4}}
	parity, _ := c.Encode(data)
	// Lose two shards — any four survivors recover the stripe.
	shards := [][]byte{nil, data[1], data[2], nil, parity[0], parity[1]}
	_ = c.Reconstruct(shards)
	fmt.Println(shards[0][0], shards[3][0])
	// Output: 1 4
}
