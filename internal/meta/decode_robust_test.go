package meta

import (
	"math/rand"
	"testing"
)

// DecodeBlock consumes bytes fetched from remote, potentially corrupted
// storage: it must never panic and must reject anything that does not
// round-trip to the expected key.

func TestDecodeNodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	key := NodeKey{Blob: 1, Version: 1, Range: NodeRange{Start: 0, Size: 4}}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		// Any outcome but a panic is acceptable; a success must carry
		// the exact key (which random bytes essentially never encode).
		node, err := decodeOne(buf, key)
		if err == nil && node.Key != key {
			t.Fatalf("decode accepted wrong key: %+v", node.Key)
		}
	}
}

func TestDecodeNodeBitFlips(t *testing.T) {
	// Flip every single bit of a valid encoding: decoding must either
	// fail or, when the flip lands in payload fields that are not
	// key/shape-relevant, produce a node with the correct key. No panics.
	orig := Node{
		Key: NodeKey{Blob: 7, Version: 3, Range: NodeRange{Start: 8, Size: 1}},
		Leaf: &LeafData{
			Write: 99, RelPage: 2, Providers: []uint32{1, 4}, Checksum: 0xbeef,
		},
	}
	enc := encodeOne(orig)
	for byteIdx := 0; byteIdx < len(enc); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[byteIdx] ^= 1 << bit
			node, err := decodeOne(mut, orig.Key)
			if err == nil && node.Key != orig.Key {
				t.Fatalf("flip %d.%d: accepted with wrong key %+v", byteIdx, bit, node.Key)
			}
		}
	}
}

func TestDecodeNodeTruncations(t *testing.T) {
	orig := Node{
		Key:     NodeKey{Blob: 2, Version: 5, Range: NodeRange{Start: 0, Size: 8}},
		LeftVer: 5, RightVer: 1,
	}
	enc := encodeOne(orig)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeOne(enc[:cut], orig.Key); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := decodeOne(enc, orig.Key); err != nil {
		t.Fatalf("full encoding rejected: %v", err)
	}
}
