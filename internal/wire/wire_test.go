package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestFixedWidthRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Uint8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.Uint16(0xbeef)
	w.Uint32(0xdeadbeef)
	w.Uint64(0x0123456789abcdef)
	w.Float64(-math.Pi)

	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 0xab {
		t.Errorf("Uint8 = %#x, want 0xab", got)
	}
	if !r.Bool() {
		t.Error("first Bool = false, want true")
	}
	if r.Bool() {
		t.Error("second Bool = true, want false")
	}
	if got := r.Uint16(); got != 0xbeef {
		t.Errorf("Uint16 = %#x, want 0xbeef", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32 = %#x, want 0xdeadbeef", got)
	}
	if got := r.Uint64(); got != 0x0123456789abcdef {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Float64(); got != -math.Pi {
		t.Errorf("Float64 = %v, want -pi", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestVarintRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	for _, c := range cases {
		w := NewWriter(16)
		w.Varint(c)
		r := NewReader(w.Bytes())
		if got := r.Varint(); got != c {
			t.Errorf("Varint(%d) round-trips to %d", c, got)
		}
		if r.Err() != nil {
			t.Errorf("Varint(%d): err %v", c, r.Err())
		}
	}
}

func TestUvarintRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool {
		w := NewWriter(16)
		w.Uvarint(v)
		r := NewReader(w.Bytes())
		return r.Uvarint() == v && r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesAndStringRoundTripQuick(t *testing.T) {
	f := func(p []byte, s string) bool {
		w := NewWriter(len(p) + len(s) + 16)
		w.BytesField(p)
		w.String(s)
		r := NewReader(w.Bytes())
		gp := r.BytesField()
		gs := r.String()
		return bytes.Equal(gp, p) && gs == s && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlicesRoundTripQuick(t *testing.T) {
	f := func(a []uint64, b []uint32, c []string) bool {
		w := NewWriter(64)
		w.Uint64Slice(a)
		w.Uint32Slice(b)
		w.StringSlice(c)
		r := NewReader(w.Bytes())
		ga := r.Uint64Slice()
		gb := r.Uint32Slice()
		gc := r.StringSlice()
		if r.Err() != nil {
			return false
		}
		if len(ga) != len(a) || len(gb) != len(b) || len(gc) != len(c) {
			return false
		}
		for i := range a {
			if ga[i] != a[i] {
				return false
			}
		}
		for i := range b {
			if gb[i] != b[i] {
				return false
			}
		}
		for i := range c {
			if gc[i] != c[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShortBufferPoisons(t *testing.T) {
	w := NewWriter(16)
	w.Uint64(42)
	p := w.Bytes()[:4] // truncate mid-field
	r := NewReader(p)
	if got := r.Uint64(); got != 0 {
		t.Errorf("truncated Uint64 = %d, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("expected error after truncated read")
	}
	// Poisoned reader keeps failing and returns zero values.
	if got := r.Uint32(); got != 0 {
		t.Errorf("post-poison Uint32 = %d, want 0", got)
	}
	if r.Err() == nil {
		t.Error("Err cleared unexpectedly")
	}
}

func TestLengthPrefixTooLarge(t *testing.T) {
	w := NewWriter(16)
	w.Uvarint(MaxElemLen + 1)
	r := NewReader(w.Bytes())
	if got := r.BytesField(); got != nil {
		t.Errorf("BytesField = %v, want nil", got)
	}
	if r.Err() == nil {
		t.Fatal("expected ErrTooLarge")
	}
}

func TestLengthPrefixBeyondBuffer(t *testing.T) {
	w := NewWriter(16)
	w.Uvarint(1000) // claims 1000 bytes, provides none
	r := NewReader(w.Bytes())
	if got := r.BytesField(); got != nil {
		t.Errorf("BytesField = %v, want nil", got)
	}
	if r.Err() != ErrShort {
		t.Fatalf("Err = %v, want ErrShort", r.Err())
	}
}

func TestSliceCountBeyondBuffer(t *testing.T) {
	w := NewWriter(16)
	w.Uvarint(1 << 40) // absurd element count
	r := NewReader(w.Bytes())
	if got := r.Uint64Slice(); got != nil {
		t.Errorf("Uint64Slice = %v, want nil", got)
	}
	if r.Err() == nil {
		t.Fatal("expected error for oversized count")
	}
	// Counts whose byte size wraps uint64 must fail the same way, not
	// reach make() with an absurd length.
	for _, n := range []uint64{1 << 61, 1 << 62, 1 << 63} {
		w.Reset()
		w.Uvarint(n)
		if r := NewReader(w.Bytes()); r.Uint64Slice() != nil || r.Err() != ErrShort {
			t.Errorf("Uint64Slice count %#x: err = %v, want ErrShort", n, r.Err())
		}
		if r := NewReader(w.Bytes()); r.Uint32Slice() != nil || r.Err() != ErrShort {
			t.Errorf("Uint32Slice count %#x: err = %v, want ErrShort", n, r.Err())
		}
	}
}

func TestCountBoundsByRemaining(t *testing.T) {
	w := NewWriter(16)
	w.Uvarint(3)
	w.Raw(make([]byte, 12))
	if r := NewReader(w.Bytes()); r.Count(4) != 3 || r.Err() != nil {
		t.Fatalf("3 entries of 4 bytes in 12: err = %v", r.Err())
	}
	r := NewReader(w.Bytes())
	if n := r.Count(5); n != 0 || r.Err() != ErrShort {
		t.Fatalf("3 entries of 5 bytes in 12: Count = %d, err = %v, want 0, ErrShort", n, r.Err())
	}
	if n := r.Count(1); n != 0 {
		t.Fatalf("Count after a failure = %d, want 0 (sticky)", n)
	}
}

func TestPaddedVarintRejected(t *testing.T) {
	// 0x80 0x00 is zero with a redundant group: writers never emit it,
	// and accepting it would give one value two encodings.
	for _, p := range [][]byte{{0x80, 0x00}, {0xff, 0x80, 0x00}} {
		if r := NewReader(p); r.Uvarint() != 0 || r.Err() != ErrPadded {
			t.Errorf("Uvarint(%x): err = %v, want ErrPadded", p, r.Err())
		}
		if r := NewReader(p); r.Varint() != 0 || r.Err() != ErrPadded {
			t.Errorf("Varint(%x): err = %v, want ErrPadded", p, r.Err())
		}
	}
	if r := NewReader([]byte{0x80, 0x01}); r.Uvarint() != 128 || r.Err() != nil {
		t.Errorf("minimal two-byte varint rejected: %v", r.Err())
	}
}

func TestBytesCopyDoesNotAlias(t *testing.T) {
	w := NewWriter(16)
	w.BytesField([]byte{1, 2, 3})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.BytesCopy()
	buf[len(buf)-1] = 99 // mutate backing store
	if got[2] != 3 {
		t.Errorf("BytesCopy aliases input: got %v", got)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.Uint64(7)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.Uint32(5)
	r := NewReader(w.Bytes())
	if got := r.Uint32(); got != 5 {
		t.Errorf("after reset Uint32 = %d, want 5", got)
	}
}

func TestRawRoundTrip(t *testing.T) {
	w := NewWriter(8)
	w.Raw([]byte{9, 8, 7})
	r := NewReader(w.Bytes())
	got := r.Raw(3)
	if !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Errorf("Raw = %v", got)
	}
	if r.Raw(1) != nil || r.Err() == nil {
		t.Error("Raw past end should poison the reader")
	}
}

func TestChecksumDistinguishesData(t *testing.T) {
	a := Checksum64([]byte("supernova"))
	b := Checksum64([]byte("supernovb"))
	if a == b {
		t.Error("checksum collision on adjacent strings")
	}
	if Checksum64(nil) != Checksum64([]byte{}) {
		t.Error("nil and empty should hash identically")
	}
}

// TestChecksumGoldenVectors pins Checksum64 to CRC-32C (Castagnoli:
// reflected polynomial 0x82F63B78, init and xorout 0xFFFFFFFF),
// zero-extended — the value every leaf, stripe sum, diskstore record,
// sidecar and publish-log frame stores. "123456789" → 0xE3069283 is the
// check value of the CRC catalogue; 32 zero bytes → 0x8A9136AA is the
// iSCSI test vector (RFC 3720 B.4). The page vector is checked against
// a bit-at-a-time reference, so the hardware kernel is compared with
// the definition rather than with itself.
func TestChecksumGoldenVectors(t *testing.T) {
	page := make([]byte, 64<<10)
	for i := range page {
		page[i] = byte(i*31 + i>>8)
	}
	ref := func(p []byte) uint64 {
		crc := ^uint32(0)
		for _, b := range p {
			crc ^= uint32(b)
			for k := 0; k < 8; k++ {
				crc = crc>>1 ^ 0x82F63B78&-(crc&1)
			}
		}
		return uint64(^crc)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want uint64
	}{
		{"empty", nil, 0},
		{"check", []byte("123456789"), 0xE3069283},
		{"zeros32", make([]byte, 32), 0x8A9136AA},
		{"page64KiB", page, 0xD582278C},
	} {
		got := Checksum64(tc.in)
		if got != tc.want || got != ref(tc.in) {
			t.Errorf("%s: Checksum64 = %#x, want %#x (bitwise reference %#x)", tc.name, got, tc.want, ref(tc.in))
		}
		if got>>32 != 0 {
			t.Errorf("%s: upper 32 bits set: %#x", tc.name, got)
		}
	}
}

func TestMix64AvalanchesLowBits(t *testing.T) {
	// Consecutive integers must land far apart: count distinct high bytes
	// across 256 consecutive inputs; a weak mixer would keep them clustered.
	seen := map[byte]bool{}
	for i := uint64(0); i < 256; i++ {
		seen[byte(Mix64(i)>>56)] = true
	}
	if len(seen) < 100 {
		t.Errorf("high-byte diversity = %d, want >= 100", len(seen))
	}
}

func TestHashFieldsOrderSensitive(t *testing.T) {
	if HashFields(1, 2) == HashFields(2, 1) {
		t.Error("HashFields should be order sensitive")
	}
	if HashFields(1, 2, 3) == HashFields(1, 2) {
		t.Error("HashFields should be length sensitive")
	}
}

func BenchmarkWriterUint64(b *testing.B) {
	w := NewWriter(1 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		for j := 0; j < 64; j++ {
			w.Uint64(uint64(j))
		}
	}
}

func BenchmarkChecksum64(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"4KiB", 4 << 10}, {"64KiB", 64 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			page := make([]byte, size.n)
			b.SetBytes(int64(len(page)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				checksumSink = Checksum64(page)
			}
		})
	}
}

var checksumSink uint64
