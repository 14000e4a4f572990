package wire

// Hashing helpers shared by the DHT key space, page placement and
// checksums. Checksums are CRC-32C (Castagnoli), which hash/crc32
// computes with the SSE4.2 / ARMv8 CRC instructions — integrity checking
// at memory speed, stdlib only. Key dispersal uses a splitmix64-style
// finalizer, whose avalanche behaviour gives the uniform node spread the
// segment-tree dispersal relies on.

import "hash/crc32"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum64 returns the CRC-32C of p (reflected polynomial 0x82F63B78,
// init and xorout 0xFFFFFFFF) zero-extended to 64 bits, so the upper 32
// bits are always 0. It is the one integrity checksum of the system:
// leaves record it at write time and readers verify it, and the same
// function guards stripe members, diskstore records and sidecars, the
// vmanager publish log and repair pulls.
func Checksum64(p []byte) uint64 {
	return uint64(crc32.Checksum(p, castagnoli))
}

// fnvOffset64 and fnvPrime64 are the FNV-1a 64-bit parameters HashFields
// folds its mixed fields with.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Mix64 finalizes x with the splitmix64 mixing function. All bits of the
// input affect all bits of the output, so consecutive keys (version
// numbers, page indexes) disperse uniformly over the ring.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashFields mixes a sequence of integers into one well-dispersed key.
// It is the canonical way to derive a DHT key from a composite identity
// such as (blobID, version, offset, size).
func HashFields(fields ...uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, f := range fields {
		h ^= Mix64(f)
		h *= fnvPrime64
		h = Mix64(h)
	}
	return h
}
