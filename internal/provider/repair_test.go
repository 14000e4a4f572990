package provider

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"blob/internal/diskstore"
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

// TestBloomDigestAcrossBackends pins the BloomDigest contract on both
// stores: no false negatives for held pages, empty-store digests rule
// everything out, and the digest survives its wire round trip.
func TestBloomDigestAcrossBackends(t *testing.T) {
	newDisk := func(t *testing.T) PageStore {
		ds, err := NewDiskStore(diskstore.Options{Dir: t.TempDir(), SegmentSize: 512}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds
	}
	backends := []struct {
		name string
		mk   func(t *testing.T) PageStore
	}{
		{"ram", func(t *testing.T) PageStore { return NewStore(0) }},
		{"disk", newDisk},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			ps := be.mk(t)
			if ps.BloomDigest().MightContain(1, 2, 3) {
				t.Error("empty store digest claims a page")
			}
			for rel := uint32(0); rel < 20; rel++ {
				put(t, ps, 1, 7, rel, []byte{byte(rel), 1, 2})
			}
			// Wire round trip, as MListWrites ships it.
			w := wire.NewWriter(256)
			ps.BloomDigest().Encode(w)
			got := DecodeDigest(wire.NewReader(w.Bytes()))
			for rel := uint32(0); rel < 20; rel++ {
				if !got.MightContain(1, 7, rel) {
					t.Fatalf("false negative for held page %d", rel)
				}
			}
			fp := 0
			for i := uint64(0); i < 1000; i++ {
				if got.MightContain(99, i, 0) {
					fp++
				}
			}
			if fp > 100 {
				t.Errorf("%d/1000 false positives; digest useless", fp)
			}
		})
	}
}

// TestListWritesEnumeratesHoldings exercises the MListWrites handler:
// full enumeration, targeted enumeration, and the digest.
func TestListWritesEnumeratesHoldings(t *testing.T) {
	st := NewStore(0)
	for rel := uint32(0); rel < 3; rel++ {
		put(t, st, 1, 100, rel, []byte("aaa"))
	}
	put(t, st, 1, 200, 0, []byte("bbb"))
	put(t, st, 2, 300, 0, []byte("ccc"))
	sv := NewService(st)

	resp, err := sv.handleListWrites(context.Background(), EncodeListWrites(nil))
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeListWrites(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Writes) != 3 || h.Holds(1, 100) != 3 || h.Holds(1, 200) != 1 || h.Holds(2, 300) != 1 {
		t.Fatalf("holdings = %+v", h.Writes)
	}
	if !h.Digest.MightContain(1, 100, 2) {
		t.Error("digest lost a held page")
	}

	// Targeted: only the requested writes come back.
	resp, err = sv.handleListWrites(context.Background(),
		EncodeListWrites([]WriteRef{{Blob: 1, Write: 200}, {Blob: 5, Write: 5}}))
	if err != nil {
		t.Fatal(err)
	}
	h, err = DecodeListWrites(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Writes) != 1 || h.Holds(1, 200) != 1 {
		t.Fatalf("targeted holdings = %+v", h.Writes)
	}
	if h.Holds(5, 5) != 0 {
		t.Error("absent write reported as held")
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
	if st.RepairedPages != 2 || st.RepairBytes != 10 || st.BloomSkips != 1 {
		t.Fatalf("repair counters = %d/%d/%d", st.RepairedPages, st.RepairBytes, st.BloomSkips)
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

// TestStatsWireCarriesRepairCounters round-trips the extended MStats
// encoding.
func TestStatsWireCarriesRepairCounters(t *testing.T) {
	sv := NewService(NewStore(0))
	sv.repairedPages.Add(5)
	sv.repairBytes.Add(1234)
	sv.bloomSkips.Add(2)
	body, err := sv.handleStats(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.RepairedPages != 5 || st.RepairBytes != 1234 || st.BloomSkips != 2 {
		t.Fatalf("decoded repair counters = %d/%d/%d", st.RepairedPages, st.RepairBytes, st.BloomSkips)
	}
}
