package provider

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"blob/internal/wire"
)

// fakePeer routes a pull handler's MGetPages calls straight into another
// service's handler, standing in for an rpc.Pool.
type fakePeer struct {
	services map[string]*Service
}

func (f fakePeer) Call(ctx context.Context, addr string, method uint32, body []byte) ([]byte, error) {
	sv, ok := f.services[addr]
	if !ok {
		return nil, fmt.Errorf("fakePeer: no service at %s", addr)
	}
	if method != MGetPages {
		return nil, fmt.Errorf("fakePeer: unexpected method %#x", method)
	}
	segs, _, err := sv.handleGetPages(ctx, body)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, s := range segs {
		out = append(out, s...)
	}
	return out, nil
}

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

// TestPullPagesRepairsFromPeer drives the full provider-to-provider pull:
// a degraded provider fetches missing pages from a healthy peer, verifies
// checksums, stores them, and skips pages it already holds on a re-run.
func TestPullPagesRepairsFromPeer(t *testing.T) {
	healthy := NewStore(0)
	pages := [][]byte{[]byte("page0"), []byte("page1"), []byte("page2")}
	refs := make([]PullRef, len(pages))
	for i, p := range pages {
		put(t, healthy, 9, 42, uint32(i), p)
		refs[i] = PullRef{Rel: uint32(i), Checksum: wire.Checksum64(p)}
	}
	healthySvc := NewService(healthy)

	degraded := NewStore(0)
	put(t, degraded, 9, 42, 0, pages[0]) // one page survived
	sv := NewService(degraded)

	// Without a peer pool the method must refuse.
	req := EncodePullPages("peer", 9, 42, refs)
	if _, err := sv.handlePullPages(context.Background(), req); !errors.Is(err, ErrRepairDisabled) {
		t.Fatalf("pull without pool: %v", err)
	}

	sv.peers = fakePeer{services: map[string]*Service{"peer": healthySvc}}
	resp, err := sv.handlePullPages(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodePullPages(resp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pulled != 2 || res.Skipped != 1 || res.Bytes != 10 {
		t.Fatalf("pull result = %+v, want 2 pulled / 1 skipped / 10 bytes", res)
	}
	for i, p := range pages {
		if got, ok := degraded.GetPage(9, 42, uint32(i)); !ok || string(got) != string(p) {
			t.Fatalf("page %d not repaired: %q %v", i, got, ok)
		}
	}
	st := sv.Snapshot()
	if st.RepairedPages != 2 || st.RepairBytes != 10 || st.PullSkips != 1 {
		t.Fatalf("repair counters = %d/%d/%d", st.RepairedPages, st.RepairBytes, st.PullSkips)
	}

	// Re-run: everything is held, nothing is transferred.
	resp, err = sv.handlePullPages(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, _ = DecodePullPages(resp)
	if res.Pulled != 0 || res.Skipped != 3 {
		t.Fatalf("idempotent re-pull = %+v", res)
	}
}

// TestPullOfHeldPagesReadsNoPageData pins where the pull handler learns
// what it holds: the index, as MListWrites answers. A pull naming only
// pages a disk-backed provider already holds skips them all without
// reading one record back from its segments.
func TestPullOfHeldPagesReadsNoPageData(t *testing.T) {
	d := newDisk(t, t.TempDir(), 0)
	var refs []PullRef
	for rel := uint32(0); rel < 4; rel++ {
		p := []byte(fmt.Sprintf("page%d", rel))
		put(t, d, 9, 42, rel, p)
		refs = append(refs, PullRef{Rel: rel, Checksum: wire.Checksum64(p)})
	}
	sv := NewService(d)
	sv.peers = fakePeer{} // any call to the peer fails
	resp, err := sv.handlePullPages(context.Background(), EncodePullPages("peer", 9, 42, refs))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := DecodePullPages(resp); err != nil || res.Skipped != 4 || res.Pulled != 0 {
		t.Fatalf("pull of held pages = %+v, %v; want 4 skipped", res, err)
	}
	if n := d.Gets.Value(); n != 0 {
		t.Fatalf("pull of held pages read %d pages from the store, want 0", n)
	}
}

// TestPullPagesRejectsBadChecksum pins that a peer serving bytes that
// fail the metadata checksum never pollutes the degraded store.
func TestPullPagesRejectsBadChecksum(t *testing.T) {
	healthy := NewStore(0)
	put(t, healthy, 9, 42, 0, []byte("genuine"))
	degraded := NewStore(0)
	sv := NewService(degraded)
	sv.peers = fakePeer{services: map[string]*Service{"peer": NewService(healthy)}}

	req := EncodePullPages("peer", 9, 42, []PullRef{{Rel: 0, Checksum: 0xBAD}})
	resp, err := sv.handlePullPages(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := DecodePullPages(resp)
	if res.Pulled != 0 {
		t.Fatalf("checksum-failing page pulled: %+v", res)
	}
	if _, ok := degraded.GetPage(9, 42, 0); ok {
		t.Fatal("bad page stored")
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
		{"pull", sv.handlePullPages, func(w *wire.Writer) { w.String("peer"); w.Uint64(1); w.Uint64(2) }},
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

// TestStatsWireCarriesRepairCounters round-trips the extended MStats
// encoding.
func TestStatsWireCarriesRepairCounters(t *testing.T) {
	sv := NewService(NewStore(0))
	sv.repairedPages.Add(5)
	sv.repairBytes.Add(1234)
	sv.pullSkips.Add(2)
	body, err := sv.handleStats(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.RepairedPages != 5 || st.RepairBytes != 1234 || st.PullSkips != 2 {
		t.Fatalf("decoded repair counters = %d/%d/%d", st.RepairedPages, st.RepairBytes, st.PullSkips)
	}
}
