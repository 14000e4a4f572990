package provider

// Tests for the zero-copy codecs: payload aliasing, status semantics of
// DecodeGetPagesInto, and the allocation regression gates the hot path
// is held to.

import (
	"bytes"
	"context"
	"testing"
)

// joinSegs flattens scatter-gather segments into the body a peer reads.
func joinSegs(segs [][]byte) []byte {
	var out []byte
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

// TestEncodePutPagesVecAliases pins the zero-copy property itself: the
// payload segments must alias the caller's buffers, not copies.
func TestEncodePutPagesVecAliases(t *testing.T) {
	data := []byte("the page payload")
	segs := EncodePutPagesVec(1, 2, []uint32{0}, [][]byte{data})
	found := false
	for _, s := range segs {
		if len(s) == len(data) && &s[0] == &data[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("no segment aliases the caller's page buffer")
	}
}

// TestDecodeGetPagesInto covers present, absent and wrong-size pages
// against the service's vectored encoder.
func TestDecodeGetPagesInto(t *testing.T) {
	st := NewStore(0)
	pageA := bytes.Repeat([]byte{0xAA}, 512)
	pageB := bytes.Repeat([]byte{0xBB}, 512)
	short := bytes.Repeat([]byte{0xCC}, 100)
	put := func(rel uint32, d []byte) {
		if err := st.PutPages([]Page{{Blob: 1, Write: 2, RelPage: rel, Data: d}}); err != nil {
			t.Fatal(err)
		}
	}
	put(0, pageA)
	put(1, pageB)
	put(3, short) // wrong size for a 512-byte destination

	sv := NewService(st)
	refs := []PageRef{
		{Blob: 1, Write: 2, RelPage: 0},
		{Blob: 1, Write: 2, RelPage: 1},
		{Blob: 1, Write: 2, RelPage: 2}, // absent
		{Blob: 1, Write: 2, RelPage: 3},
	}
	segs, _, err := sv.handleGetPages(context.Background(), EncodeGetPages(refs))
	if err != nil {
		t.Fatal(err)
	}
	body := joinSegs(segs)

	dsts := make([][]byte, len(refs))
	for i := range dsts {
		dsts[i] = make([]byte, 512)
	}
	status := make([]PageStatus, len(refs))
	if err := DecodeGetPagesInto(body, dsts, status); err != nil {
		t.Fatal(err)
	}
	want := []PageStatus{PageOK, PageOK, PageMissing, PageBad}
	for i, st := range status {
		if st != want[i] {
			t.Errorf("status[%d] = %d, want %d", i, st, want[i])
		}
	}
	if !bytes.Equal(dsts[0], pageA) || !bytes.Equal(dsts[1], pageB) {
		t.Error("destination bytes differ from stored pages")
	}

	// The copying decoder (repair paths) must agree on the same body.
	datas, err := DecodeGetPages(body, len(refs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(datas[0], pageA) || !bytes.Equal(datas[1], pageB) ||
		datas[2] != nil || !bytes.Equal(datas[3], short) {
		t.Error("DecodeGetPages of the same response differs")
	}
}

// TestEncodePutPagesVecAllocs is the allocation gate on the write-side
// codec: one header arena plus one segment list, independent of page
// count or payload size.
func TestEncodePutPagesVecAllocs(t *testing.T) {
	const npages = 64
	rels := make([]uint32, npages)
	datas := make([][]byte, npages)
	page := make([]byte, 4096)
	for i := range rels {
		rels[i] = uint32(i)
		datas[i] = page
	}
	avg := testing.AllocsPerRun(100, func() {
		EncodePutPagesVec(7, 8, rels, datas)
	})
	if avg > 2 {
		t.Fatalf("EncodePutPagesVec: %.1f allocs/op, want <= 2", avg)
	}
}

// TestDecodeGetPagesIntoAllocs is the allocation gate on the read-side
// codec: zero allocations — pages land straight in caller memory.
func TestDecodeGetPagesIntoAllocs(t *testing.T) {
	st := NewStore(0)
	const npages = 64
	refs := make([]PageRef, npages)
	for i := range refs {
		refs[i] = PageRef{Blob: 1, Write: 2, RelPage: uint32(i)}
		if err := st.PutPages([]Page{{Blob: 1, Write: 2, RelPage: uint32(i), Data: make([]byte, 4096)}}); err != nil {
			t.Fatal(err)
		}
	}
	sv := NewService(st)
	segs, _, err := sv.handleGetPages(context.Background(), EncodeGetPages(refs))
	if err != nil {
		t.Fatal(err)
	}
	body := joinSegs(segs)
	dsts := make([][]byte, npages)
	for i := range dsts {
		dsts[i] = make([]byte, 4096)
	}
	status := make([]PageStatus, npages)
	avg := testing.AllocsPerRun(100, func() {
		if err := DecodeGetPagesInto(body, dsts, status); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("DecodeGetPagesInto: %.1f allocs/op, want 0", avg)
	}
}

// TestHandleGetPagesVecAllocs bounds the provider-side serve path: the
// response is assembled from one arena, one segment list and the
// store's own page memory — no per-page payload copies.
func TestHandleGetPagesVecAllocs(t *testing.T) {
	st := NewStore(0)
	const npages = 64
	refs := make([]PageRef, npages)
	for i := range refs {
		refs[i] = PageRef{Blob: 1, Write: 2, RelPage: uint32(i)}
		if err := st.PutPages([]Page{{Blob: 1, Write: 2, RelPage: uint32(i), Data: make([]byte, 4096)}}); err != nil {
			t.Fatal(err)
		}
	}
	sv := NewService(st)
	body := EncodeGetPages(refs)
	ctx := context.Background()
	avg := testing.AllocsPerRun(100, func() {
		if _, _, err := sv.handleGetPages(ctx, body); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 4 {
		t.Fatalf("handleGetPages: %.1f allocs/op, want <= 4", avg)
	}
}
