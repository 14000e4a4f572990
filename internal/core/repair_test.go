package core_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/erasure"
	"blob/internal/netsim"
	"blob/internal/provider"
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
// docs/erasure.md §4: a page served by a healthy replica after a
// definite miss is re-pushed to the replica that missed it, restoring
// redundancy as a side effect of reading.
func TestReadRepairRestoresMissingReplica(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, Redundancy: erasure.Redundancy{K: 1, M: 1}})
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

// TestHealedReplicaServesNextReads pins that read-repair returns a
// healed replica to the rotation: once the pages a wiped replica missed
// are re-pushed, the next reads fetch from it again and re-push nothing.
func TestHealedReplicaServesNextReads(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	data := pattern(13, 8*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	healed := int(tierProviders(t, b, v)[0]) - 1
	lost := wipeStore(cl.DataStores[healed], b.ID())

	got := make([]byte, len(data))
	read := func() {
		t.Helper()
		if _, err := b.Read(ctx, got, 0, v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("wrong bytes")
		}
	}
	read()
	for deadline := time.Now().Add(5 * time.Second); c.ReadRepairs.Value() < int64(lost); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("read-repair restored %d of %d pages", c.ReadRepairs.Value(), lost)
		}
	}

	repairs := c.ReadRepairs.Value()
	gets := cl.DataServices[healed].GetLatency.Count()
	const reads = 10
	for i := 0; i < reads; i++ {
		read()
	}
	// Re-pushes run in the background: watch a while for any to land.
	time.Sleep(100 * time.Millisecond)
	if n := c.ReadRepairs.Value() - repairs; n != 0 {
		t.Errorf("%d reads re-pushed %d pages to the healed replica", reads, n)
	}
	if n := cl.DataServices[healed].GetLatency.Count() - gets; n < reads {
		t.Errorf("the healed replica served %d gets over %d reads", n, reads)
	}
}

// TestKnownVersionReadIgnoresProviderManager pins that a read of a
// known version touches no central role (docs/architecture.md, failure
// matrix): with the provider manager stalled, a fresh client whose
// metadata ring and provider directory are warm reads the version back
// well inside its deadline.
func TestKnownVersionReadIgnoresProviderManager(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	data := pattern(15, 8*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh client has never read: NewClient fetches the provider
	// directory, and ReadMeta warms the ring.
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
