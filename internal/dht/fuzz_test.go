package dht

import (
	"bytes"
	"context"
	"encoding/binary"
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
//
// The same bytes also go to the other dht decoders that face the
// network. As an MMultiPut body: a rejected body stores nothing. As an
// MDirRegister body: an accepted address joins the membership, and the
// MDirMembers reply then decodes back to it. As an MDirMembers reply
// and an MStats reply: no panic, no allocation sized by a count the
// bytes cannot hold, and accepted stats re-encode to the bytes they
// came from.
func FuzzMultiGetCodec(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzMultiGetCodec) holds the
	// shaped seeds: inflated counts, overflowing range, padded varints,
	// torn and trailing bytes, on both halves.
	f.Add([]byte{})
	for _, n := range []uint64{1 << 40, 1 << 63} {
		f.Add(binary.AppendUvarint(nil, n))             // a multiput's entries
		f.Add(binary.AppendUvarint(make([]byte, 8), n)) // a members reply's, after its epoch
	}
	store := NewStore()
	store.Follow = chainFollow
	for k := uint64(0); k < 300; k++ {
		store.Put(k, chainValue('f', k+1, k+150))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOtherDecoders(t, data)
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

// fuzzOtherDecoders runs data through the multiput, directory and stats
// decoders (see FuzzMultiGetCodec).
func fuzzOtherDecoders(t *testing.T, data []byte) {
	ctx := context.Background()
	puts := NewStore()
	puts.Put(1, []byte("one"))
	before := puts.Snapshot().Entries
	if _, err := puts.handleMultiPut(ctx, data); err != nil {
		if after := puts.Snapshot().Entries; after != before {
			t.Fatalf("rejected multiput: %d entries, was %d", after, before)
		}
	} else if n := puts.Snapshot().Entries; n > before+uint64(len(data)/minEntryBytes) {
		t.Fatalf("multiput of %d bytes stored %d entries", len(data), n-before)
	}

	dir := NewDirectory()
	if _, err := dir.handleRegister(ctx, data); err == nil {
		resp, _ := dir.handleMembers(ctx, nil)
		epoch, members, err := DecodeMembers(resp)
		if err != nil || epoch != 1 || len(members) != 1 || members[0].ID != 1 {
			t.Fatalf("members after one register = %d, %+v, %v", epoch, members, err)
		}
		r := wire.NewReader(data)
		if addr := r.String(); members[0].Addr != addr {
			t.Fatalf("registered %q, members name %q", addr, members[0].Addr)
		}
	}

	if _, members, err := DecodeMembers(data); err == nil && 9*cap(members) > len(data) {
		t.Fatalf("%d members sized from %d bytes", cap(members), len(data))
	}

	if st, err := DecodeStoreStats(data); err == nil {
		w := wire.NewWriter(len(data))
		for _, f := range storeStatFields {
			w.Uint64(*f.at(&st))
		}
		if !bytes.HasPrefix(data, w.Bytes()) {
			t.Fatalf("stats do not re-encode:\n in %x\nout %x", data, w.Bytes())
		}
	}
}
