// Index sidecar files.
//
// When a segment is sealed, and only once its fsync has returned, the
// store writes a companion file (seg-NNNNNNNN.idx) holding everything
// recovery would otherwise learn by replaying the segment's data: every
// put record's page key with its sequence number, offset and encoded
// size, and every tombstone with its sequence number. On the next Open,
// sealed segments whose sidecar is present and matches the segment file
// byte count are absorbed by reading only the sidecar — restart cost
// becomes O(live index), not O(disk) — while the active tail segment is
// always replayed (a crash can tear only it and the segment below it,
// whose seal may not have finished) and any segment whose sidecar is
// missing, torn or checksum-corrupt degrades to the pre-sidecar full
// replay of just that segment.
//
// Sidecars are pure acceleration: they are written tmp+rename (never
// partially visible under their final name), carry a whole-file
// checksum, and are deleted with their segment by the compactor, so a
// lost or rotten sidecar can cost time but never correctness. The exact
// byte layout is specified in docs/diskstore-format.md.

package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"blob/internal/wire"
)

const (
	idxSuffix = ".idx"
	idxTmp    = ".idx.tmp"

	idxMagic = 0x58444953 // "SIDX", little-endian
	// idxVersion 3: no bloom filter section (version 2 ended with one;
	// version 1 checksummed with FNV-1a). An older sidecar fails
	// validation, so its segment degrades to a replay.
	idxVersion = 3
)

// sidecarPath returns the sidecar filename for segment id.
func sidecarPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, id, idxSuffix))
}

// sidecarPut is one put record's index entry.
type sidecarPut struct {
	blob  uint64
	write uint64
	rel   uint32
	seq   uint64
	off   int64
	size  int64
}

// sidecarDelPages is one page of an opDelPages tombstone (the record is
// flattened to one entry per rel, which is what replay resolution needs).
type sidecarDelPages struct {
	blob  uint64
	write uint64
	rel   uint32
	seq   uint64
}

// sidecarDelWrite is one opDelWrite tombstone.
type sidecarDelWrite struct {
	blob  uint64
	write uint64
	seq   uint64
}

// sidecar is the decoded content of one .idx file.
type sidecar struct {
	id        uint64
	dataSize  int64 // segment .log byte count this sidecar describes
	maxSeq    uint64
	puts      []sidecarPut
	delPages  []sidecarDelPages
	delWrites []sidecarDelWrite
}

// encode returns the sidecar's file bytes: fixed-width little-endian
// fields followed by a whole-file CRC-32C checksum (wire.Checksum64).
func (sc *sidecar) encode() []byte {
	w := wire.NewWriter(64 + 44*len(sc.puts) + 28*len(sc.delPages) + 24*len(sc.delWrites))
	w.Uint32(idxMagic)
	w.Uint32(idxVersion)
	w.Uint64(sc.id)
	w.Uint64(uint64(sc.dataSize))
	w.Uint64(sc.maxSeq)
	w.Uint64(uint64(len(sc.puts)))
	for _, p := range sc.puts {
		w.Uint64(p.blob)
		w.Uint64(p.write)
		w.Uint32(p.rel)
		w.Uint64(p.seq)
		w.Uint64(uint64(p.off))
		w.Uint64(uint64(p.size))
	}
	w.Uint64(uint64(len(sc.delPages)))
	for _, d := range sc.delPages {
		w.Uint64(d.blob)
		w.Uint64(d.write)
		w.Uint32(d.rel)
		w.Uint64(d.seq)
	}
	w.Uint64(uint64(len(sc.delWrites)))
	for _, d := range sc.delWrites {
		w.Uint64(d.blob)
		w.Uint64(d.write)
		w.Uint64(d.seq)
	}
	w.Uint64(wire.Checksum64(w.Bytes()))
	return w.Bytes()
}

// decodeSidecar parses and validates sidecar file bytes. Any structural
// defect — short file, bad magic or version, checksum mismatch,
// implausible counts — returns ErrCorrupt; the caller falls back to a
// full replay of the segment.
func decodeSidecar(buf []byte) (*sidecar, error) {
	if len(buf) < 56+8 { // an empty sidecar: header, three zero counts, checksum
		return nil, fmt.Errorf("%w: sidecar %d bytes", ErrCorrupt, len(buf))
	}
	body, sumBytes := buf[:len(buf)-8], buf[len(buf)-8:]
	if wire.Checksum64(body) != wire.NewReader(sumBytes).Uint64() {
		return nil, fmt.Errorf("%w: sidecar checksum mismatch", ErrCorrupt)
	}
	r := wire.NewReader(body)
	if m := r.Uint32(); m != idxMagic {
		return nil, fmt.Errorf("%w: sidecar magic %#x", ErrCorrupt, m)
	}
	if v := r.Uint32(); v != idxVersion {
		return nil, fmt.Errorf("%w: sidecar version %d", ErrCorrupt, v)
	}
	sc := &sidecar{}
	sc.id = r.Uint64()
	sc.dataSize = int64(r.Uint64())
	sc.maxSeq = r.Uint64()

	nPuts, err := wire.CheckCount(r.Uint64(), r.Remaining(), 44)
	if err != nil {
		return nil, fmt.Errorf("%w: sidecar put count: %v", ErrCorrupt, err)
	}
	sc.puts = make([]sidecarPut, nPuts)
	for i := range sc.puts {
		sc.puts[i] = sidecarPut{
			blob: r.Uint64(), write: r.Uint64(), rel: r.Uint32(),
			seq: r.Uint64(), off: int64(r.Uint64()), size: int64(r.Uint64()),
		}
	}
	nDelPages, err := wire.CheckCount(r.Uint64(), r.Remaining(), 28)
	if err != nil {
		return nil, fmt.Errorf("%w: sidecar del-pages count: %v", ErrCorrupt, err)
	}
	sc.delPages = make([]sidecarDelPages, nDelPages)
	for i := range sc.delPages {
		sc.delPages[i] = sidecarDelPages{
			blob: r.Uint64(), write: r.Uint64(), rel: r.Uint32(), seq: r.Uint64(),
		}
	}
	nDelWrites, err := wire.CheckCount(r.Uint64(), r.Remaining(), 24)
	if err != nil {
		return nil, fmt.Errorf("%w: sidecar del-writes count: %v", ErrCorrupt, err)
	}
	sc.delWrites = make([]sidecarDelWrite, nDelWrites)
	for i := range sc.delWrites {
		sc.delWrites[i] = sidecarDelWrite{
			blob: r.Uint64(), write: r.Uint64(), seq: r.Uint64(),
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: sidecar body: %v", ErrCorrupt, err)
	}
	if sc.dataSize < 0 {
		return nil, fmt.Errorf("%w: sidecar structure", ErrCorrupt)
	}
	for _, p := range sc.puts {
		// Subtractive form: p.off + p.size could overflow int64 on a
		// checksum-valid-but-hostile file and wrap past the bound.
		if p.off < 0 || p.size < recHeaderSize+putBodyPrefix ||
			p.size > sc.dataSize || p.off > sc.dataSize-p.size {
			return nil, fmt.Errorf("%w: sidecar entry out of range", ErrCorrupt)
		}
	}
	return sc, nil
}

// writeSidecarFile atomically replaces segment id's sidecar.
func writeSidecarFile(dir string, sc *sidecar) error {
	return writeSidecarBytes(dir, sc.id, sc.encode())
}

// writeSidecarBytes atomically installs already-encoded sidecar bytes:
// they land under a temporary name and are renamed into place, so a
// crash mid-write never leaves a short file under the .idx name (and a
// torn rename target would fail the checksum anyway).
func writeSidecarBytes(dir string, id uint64, data []byte) error {
	final := sidecarPath(dir, id)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// removeOrphanSidecars deletes .idx and .idx.tmp files whose segment no
// longer exists. Run at Open, before any appends: it prevents a stale
// sidecar left by a compacted-away segment from ever being paired with a
// future segment that reuses the id after a restart.
func removeOrphanSidecars(dir string, ids []uint64) {
	live := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		live[id] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) {
			continue
		}
		if strings.HasSuffix(name, idxTmp) {
			os.Remove(filepath.Join(dir, name)) // torn sidecar write leftover
			continue
		}
		base, ok := strings.CutSuffix(name, idxSuffix)
		if !ok {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimPrefix(base, segPrefix), 10, 64)
		if err != nil {
			continue
		}
		if !live[id] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
