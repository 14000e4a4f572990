package diskstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// corpusSeeds returns the []byte inputs committed under
// testdata/fuzz/<target>.
func corpusSeeds(t *testing.T, target string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed seeds for %s (%v)", target, err)
	}
	var seeds [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if !ok {
			t.Fatalf("%s: not a []byte seed", f)
		}
		str, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		seeds = append(seeds, []byte(str))
	}
	return seeds
}

// TestCommittedSeedsPassChecksumGate keeps the committed corpora honest:
// their interesting seeds embed record checksums, so a change of
// checksum function (FNV-1a → CRC-32C) silently turns every one of them
// into a "checksum mismatch" input that exercises nothing behind the
// gate. At least one seed per target must still open with a record the
// decoder accepts.
func TestCommittedSeedsPassChecksumGate(t *testing.T) {
	for _, target := range []string{"FuzzDecodeRecord", "FuzzSegmentScan"} {
		accepted := 0
		for _, data := range corpusSeeds(t, target) {
			if _, _, err := decodeRecord(data); err == nil {
				accepted++
			}
		}
		if accepted == 0 {
			t.Errorf("%s: no committed seed decodes past the checksum gate; regenerate the corpus", target)
		}
	}
}

// FuzzDecodeRecord asserts the record decoder never panics, never
// accepts a record that does not round-trip, and never reports a size
// beyond the input.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(appendPutRecord(nil, 1, 1, 2, 3, []byte("payload")))
	f.Add(appendDelPagesRecord(nil, 2, 9, 8, []uint32{0, 1, 7}))
	f.Add(appendDelWriteRecord(nil, 3, 5, 6))
	torn := appendPutRecord(nil, 4, 1, 2, 3, []byte("torn"))
	f.Add(torn[:len(torn)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoded size %d of %d input bytes", n, len(data))
		}
		// An accepted record must re-encode to exactly the bytes it was
		// decoded from — the checksum leaves no slack for smuggled bytes.
		var re []byte
		switch rec.op {
		case opPut:
			re = appendPutRecord(nil, rec.seq, rec.blob, rec.write, rec.rel, rec.data)
		case opDelPages:
			re = appendDelPagesRecord(nil, rec.seq, rec.blob, rec.write, rec.rels)
		case opDelWrite:
			re = appendDelWriteRecord(nil, rec.seq, rec.blob, rec.write)
		default:
			t.Fatalf("accepted unknown opcode %d", rec.op)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("record does not round-trip:\n got %x\nwant %x", re, data[:n])
		}
	})
}

// FuzzSegmentScan feeds arbitrary bytes to the startup scan as a
// segment file. Whatever the input, Open must not panic, and every page
// the recovered store serves must match an independent replay of the
// file's valid record prefix — corrupt or truncated input is rejected or
// truncated, never served.
func FuzzSegmentScan(f *testing.F) {
	var seed []byte
	seed = appendPutRecord(seed, 1, 1, 10, 0, []byte("alpha"))
	seed = appendPutRecord(seed, 2, 1, 10, 1, []byte("beta"))
	seed = appendDelPagesRecord(seed, 3, 1, 10, []uint32{0})
	seed = appendPutRecord(seed, 4, 2, 11, 0, []byte("gamma"))
	f.Add([]byte{})
	f.Add(seed)
	f.Add(seed[:len(seed)-4])                    // torn tail
	f.Add(append(bytes.Clone(seed), 0xde, 0xad)) // garbage tail
	flipped := bytes.Clone(seed)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped) // checksum-breaking bit flip
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			return // rejecting the file outright is fine
		}
		defer s.Close()

		// Independent seq-based replay of the valid prefix: keep the
		// highest-seq put and tombstone per page, then resolve.
		type pk struct {
			blob, write uint64
			rel         uint32
		}
		type wk struct{ blob, write uint64 }
		puts := map[pk][]byte{}
		putSeq := map[pk]uint64{}
		delPage := map[pk]uint64{}
		delWrite := map[wk]uint64{}
		for off := 0; off < len(data); {
			rec, n, err := decodeRecord(data[off:])
			if err != nil {
				break
			}
			switch rec.op {
			case opPut:
				k := pk{rec.blob, rec.write, rec.rel}
				if rec.seq > putSeq[k] {
					putSeq[k] = rec.seq
					puts[k] = bytes.Clone(rec.data)
				}
			case opDelPages:
				for _, rel := range rec.rels {
					k := pk{rec.blob, rec.write, rel}
					if rec.seq > delPage[k] {
						delPage[k] = rec.seq
					}
				}
			case opDelWrite:
				k := wk{rec.blob, rec.write}
				if rec.seq > delWrite[k] {
					delWrite[k] = rec.seq
				}
			}
			off += n
		}
		want := map[string][]byte{}
		for k, d := range puts {
			seq := putSeq[k]
			if seq > delWrite[wk{k.blob, k.write}] && seq > delPage[k] {
				want[fmt.Sprintf("%d/%d/%d", k.blob, k.write, k.rel)] = d
			}
		}

		got := map[string][]byte{}
		s.ForEachPage(func(blob, write uint64, rel uint32, d []byte) {
			got[fmt.Sprintf("%d/%d/%d", blob, write, rel)] = d
		})
		if len(got) != len(want) {
			t.Fatalf("recovered %d pages, replay expects %d", len(got), len(want))
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || !bytes.Equal(g, w) {
				t.Fatalf("page %s: served %q, replay expects %q", k, g, w)
			}
		}
	})
}
