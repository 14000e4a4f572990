package core_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/netsim"
	"blob/internal/provider"
	"blob/internal/wire"
)

// pageWrites returns every (write, pageCount) pair a store holds.
func storeWrites(st provider.PageStore) map[uint64]int {
	m := make(map[uint64]int)
	st.ForEachPage(func(_, write uint64, _ uint32, _ []byte) { m[write]++ })
	return m
}

// wipeStore deletes every page from a store, returning how many it held.
func wipeStore(st provider.PageStore, blobID uint64) int {
	n := 0
	for write := range storeWrites(st) {
		n += st.DeleteWrite(blobID, write)
	}
	return n
}

// TestReadRepairRestoresMissingReplica pins the read-repair side of
// docs/replication.md §6: a page served by a healthy replica after a
// definite miss is re-pushed to the replica that missed it, restoring
// redundancy as a side effect of reading.
func TestReadRepairRestoresMissingReplica(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, DataReplicas: 2})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	data := pattern(3, 8*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Lose every page of one replica store. Placement alternates replica
	// order, so some pages have the wiped store as their first probe —
	// those reads miss, fail over, and must re-push.
	lost := wipeStore(cl.DataStores[0], b.ID())
	if lost == 0 {
		t.Fatal("test bug: store 0 held no pages")
	}

	got := make([]byte, 8*pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatalf("read with wiped replica: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover returned wrong bytes")
	}

	// The background re-push restores at least the pages that missed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cl.DataStores[0].Snapshot().PageCount > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no page re-pushed to the wiped replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.ReadRepairs.Value() == 0 {
		t.Error("ReadRepairs counter not incremented")
	}
}

// TestBloomRoutingSkipsRuledOutReplica pins digest routing: a cached
// digest that rules a page out must skip that replica without an RPC —
// the page is served by the other replica and the skipped provider is
// recorded as a repair target.
func TestBloomRoutingSkipsRuledOutReplica(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, DataReplicas: 2})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	data := pattern(5, 4*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	wipeStore(cl.DataStores[0], b.ID())

	// Provider IDs are assigned in registration order: store 0 serves
	// provider id 1. An empty digest (zero filters) rules everything out.
	c.SeedDigest(1, provider.Digest{})

	got := make([]byte, 4*pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatalf("read with ruled-out replica: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("routing returned wrong bytes")
	}
	if c.BloomSkips.Value() == 0 {
		t.Error("no probe was skipped despite a ruling-out digest")
	}
	// A digest skip is a definite miss: the skipped replica must become
	// a read-repair target and be repopulated in the background.
	deadline := time.Now().Add(5 * time.Second)
	for c.ReadRepairs.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("digest-skipped replica was never read-repaired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBloomFalsePositiveFallsThrough pins the failure-matrix row the
// spec calls out: a replica whose digest says "might contain" but which
// actually lacks the page must be probed, miss, and fall through to the
// next replica — never error the read.
func TestBloomFalsePositiveFallsThrough(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, DataReplicas: 2})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	data := pattern(9, 4*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	wipeStore(cl.DataStores[0], b.ID())

	// Seed a digest claiming provider 1 might hold *everything* — the
	// false-positive extreme. Routing must not trust it as presence.
	all := wire.NewBloom(1)
	filled := &provider.Digest{Filters: []*wire.Bloom{all}}
	// Saturate the filter: one add sets 7 bits of a 64-bit word; add
	// enough keys that MightContain answers true for any key.
	for i := uint64(0); i < 200; i++ {
		all.Add(i, i*31, uint32(i))
	}
	c.SeedDigest(1, *filled)

	got := make([]byte, 4*pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatalf("read with false-positive digest: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fall-through returned wrong bytes")
	}
	if c.BloomSkips.Value() != 0 {
		t.Error("false-positive digest caused a skip; replicas must be probed")
	}
}

// TestDigestNeverSkipsLastReplica pins the safety rule: even a digest
// ruling a page out on every replica leaves the last replica probed, so
// a wholly stale cache degrades performance, never correctness.
func TestDigestNeverSkipsLastReplica(t *testing.T) {
	_, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, DataReplicas: 2})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	data := pattern(11, 2*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rule everything out everywhere: ids 1 and 2.
	c.SeedDigest(1, provider.Digest{})
	c.SeedDigest(2, provider.Digest{})

	got := make([]byte, 2*pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatalf("read failed under all-ruling-out digests: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong bytes")
	}
}

// TestStaleDigestRetriesSkippedReplica pins the last pass of
// docs/replication.md §6 rule 4: a stale digest that rules a page out on
// a replica which really holds it, while the page's other replica is
// down, must not fail the read. Before the page is declared unavailable
// the replicas its digests skipped are asked once more, digests ignored.
func TestStaleDigestRetriesSkippedReplica(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, DataReplicas: 2})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	data := pattern(13, 4*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Provider id 1 holds every page, but its cached digest says it
	// holds none; provider id 2 goes down.
	c.SeedDigest(1, provider.Digest{})
	cl.DataServers[1].Close()

	got := make([]byte, 4*pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatalf("read with a stale digest and a down replica: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retry pass returned wrong bytes")
	}
}

// TestKnownVersionReadIgnoresProviderManager pins that a read of a
// known version touches no central role (docs/architecture.md, failure
// matrix): with the provider manager stalled, a fresh client whose
// metadata ring and provider directory are warm reads the version back
// well inside its deadline.
func TestKnownVersionReadIgnoresProviderManager(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, DataReplicas: 2})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	data := pattern(15, 8*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh client has never read, so its digest cache is empty.
	// NewClient fetches the provider directory; ReadMeta warms the ring.
	fresh, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	fb, err := fresh.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.ReadMeta(ctx, 0, uint64(len(data)), v); err != nil {
		t.Fatal(err)
	}

	cl.Fabric().SetAddrFault(cl.PMAddr, netsim.Fault{Stall: true})
	defer cl.Fabric().ClearAddrFault(cl.PMAddr)
	rctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	got := make([]byte, len(data))
	start := time.Now()
	_, err = fb.Read(rctx, got, 0, v)
	if err == nil {
		err = rctx.Err() // served, but only after waiting out its deadline
	}
	if err != nil {
		t.Fatalf("read with the provider manager stalled, after %v: %v", time.Since(start), err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong bytes")
	}
}
