package dht

import (
	"bytes"
	"math"
	"testing"

	"blob/internal/wire"
)

// FuzzMultiGetCodec feeds the same bytes to both network-facing halves
// of the batched fetch. As a request (keys + hint): the decoder never
// panics, accepts only a canonical body whose counts fit it and whose
// range does not overflow, and whatever it accepts a store with a follow
// hook answers with a response the client half parses, extras within
// the caps. As a response (entries + extras): the decoder never panics,
// accounts for every requested key exactly once and hands out no more
// value bytes than it was given.
func FuzzMultiGetCodec(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzMultiGetCodec) holds the
	// shaped seeds: inflated counts, overflowing range, padded varints,
	// torn and trailing bytes, on both halves.
	f.Add([]byte{})
	store := NewStore()
	store.Follow = chainFollow
	for k := uint64(0); k < 300; k++ {
		store.Put(k, chainValue('f', k+1, k+150))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if run, h, err := decodeMultiGetRequest(data); err == nil {
			keys := make([]uint64, run.Len())
			for i := range keys {
				keys[i] = run.At(i)
			}
			if len(keys) > len(data)/8 || h.Count > math.MaxUint64-h.First {
				t.Fatalf("accepted %d keys, range [%d,+%d) from %d bytes", len(keys), h.First, h.Count, len(data))
			}
			w := wire.NewWriter(len(data))
			appendMultiGetRequest(w, keys, h)
			if !bytes.Equal(w.Bytes(), data) {
				t.Fatalf("accepted request does not re-encode byte-identically:\n in %x\nout %x", data, w.Bytes())
			}
			resp, err := serveMultiGet(store, data)
			if err != nil {
				t.Fatalf("store refused a request the decoder accepts: %v", err)
			}
			var out Values
			missed, err := decodeMultiGetResponse(resp, keys, "", &out)
			if err != nil {
				t.Fatalf("client cannot parse the store's answer: %v", err)
			}
			asked := make(map[uint64]bool, len(keys))
			for _, k := range keys {
				asked[k] = true
			}
			extras := 0
			for k := range out.m {
				if !asked[k] {
					extras++
				}
			}
			if extras > MaxFollowBlocks || len(missed) > len(keys) {
				t.Fatalf("%d extras, %d missed of %d keys", extras, len(missed), len(keys))
			}
		}

		// As a response: the key count it claims is what was "asked".
		r := wire.NewReader(data)
		n := r.Uvarint()
		if r.Err() != nil || n > uint64(len(data)) { // an entry is at least its flag byte
			n = 0
		}
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)
		}
		var out Values
		missed, err := decodeMultiGetResponse(data, keys, "", &out)
		if err != nil {
			return
		}
		// Every asked key is either reported missed or holds a value (an
		// extra may name a missed key too: then it is both).
		isMissed := make(map[uint64]bool, len(missed))
		for _, k := range missed {
			isMissed[k] = true
		}
		size := 0
		for _, k := range keys {
			if _, ok := out.Get(k); !ok && !isMissed[k] {
				t.Fatalf("asked key %d neither found nor missed", k)
			}
		}
		for _, v := range out.m {
			size += len(v.body)
		}
		if len(missed) > len(keys) || size > len(data) {
			t.Fatalf("%d keys: %d missed, %d value bytes from %d", len(keys), len(missed), size, len(data))
		}
	})
}
