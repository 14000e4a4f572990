package provider

import (
	"context"
	"slices"
	"testing"

	"blob/internal/wire"
)

func put(t *testing.T, ps PageStore, blob, write uint64, rel uint32, data []byte) {
	t.Helper()
	if err := ps.PutPages([]Page{{Blob: blob, Write: write, RelPage: rel, Data: data}}); err != nil {
		t.Fatal(err)
	}
}

// TestListWritesEnumeratesHoldings exercises the MListWrites handler:
// each requested write comes back with exactly the rels held live, a
// write the provider holds nothing of with none, and writes not asked
// about not at all.
func TestListWritesEnumeratesHoldings(t *testing.T) {
	st := NewStore(0)
	for _, rel := range []uint32{0, 2, 300, 301} {
		put(t, st, 1, 100, rel, []byte("aaa"))
	}
	put(t, st, 1, 200, 0, []byte("bbb"))
	put(t, st, 2, 300, 0, []byte("ccc"))
	st.DeletePages(1, 100, []uint32{2})
	sv := NewService(st)

	resp, err := sv.handleListWrites(context.Background(),
		EncodeListWrites([]WriteRef{{Blob: 1, Write: 100}, {Blob: 5, Write: 5}, {Blob: 1, Write: 100}}))
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeListWrites(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 2 || !slices.Equal(h[WriteRef{1, 100}], []uint32{0, 300, 301}) || len(h[WriteRef{5, 5}]) != 0 {
		t.Fatalf("holdings = %v", h)
	}
	if !h.Has(1, 100, 300) || h.Has(1, 100, 2) || h.Has(1, 200, 0) {
		t.Errorf("Has disagrees with holdings %v", h)
	}
}

// TestHandlersRejectOversizedCounts: a request claiming 2^40 entries in
// a body of a few dozen bytes is refused before anything is sized from
// the count, instead of taking the provider down out of memory.
func TestHandlersRejectOversizedCounts(t *testing.T) {
	sv := NewService(NewStore(0))
	for _, tc := range []struct {
		name   string
		handle func(context.Context, []byte) ([]byte, error)
		prefix func(w *wire.Writer)
	}{
		{"put", sv.handlePutPages, func(w *wire.Writer) { w.Uint64(1); w.Uint64(2) }},
		{"list", sv.handleListWrites, func(w *wire.Writer) {}},
	} {
		w := wire.NewWriter(64)
		tc.prefix(w)
		w.Uvarint(1 << 40)
		w.Uint32(0) // room for less than one entry of any kind
		if _, err := tc.handle(context.Background(), w.Bytes()); err == nil {
			t.Errorf("%s: a count of 2^40 in %d bytes was accepted", tc.name, len(w.Bytes()))
		}
	}
}

// TestPutTornInHeaderIsRefused: a put body cut before its page count is
// refused, not answered as a put of no pages.
func TestPutTornInHeaderIsRefused(t *testing.T) {
	w := wire.NewWriter(16)
	w.Uint64(1)
	w.Uint32(0) // half a write id
	if _, err := NewService(NewStore(0)).handlePutPages(context.Background(), w.Bytes()); err == nil {
		t.Fatal("a put torn inside its header was accepted")
	}
}
