package core_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/erasure"
	"blob/internal/meta"
)

// TestErasureCounters pins the client-side erasure telemetry: writes
// account parity bytes, healthy reads never decode, and a degraded
// read counts one stripe decode plus the pages it served — then heals
// the missing shard back to its provider via the background re-push.
func TestErasureCounters(t *testing.T) {
	cl, c := launch(t, cluster.Config{
		DataProviders: 6,
		MetaProviders: 6,
		Redundancy:    erasure.Redundancy{K: 4, M: 2},
		CacheNodes:    0,
	})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}

	data := pattern(3, 4*pageSize) // exactly one rs(4,2) stripe
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ParityBytes.Value(); got != 2*pageSize {
		t.Fatalf("ParityBytes = %d, want %d (2 parity pages)", got, 2*pageSize)
	}

	got := make([]byte, len(data))
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("healthy read mismatch")
	}
	if c.DegradedReads.Value() != 0 || c.ReconstructedPages.Value() != 0 {
		t.Fatalf("healthy read decoded: %d/%d", c.DegradedReads.Value(), c.ReconstructedPages.Value())
	}

	// Drop page 0's shard from its home provider and read it back: one
	// stripe decode serving one page.
	write, home := leafPlacement(t, b, v)
	cl.DataStores[home-1].DeleteWrite(b.ID(), write)
	one := make([]byte, pageSize)
	if _, err := b.Read(ctx, one, 0, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, data[:pageSize]) {
		t.Fatal("degraded read mismatch")
	}
	if c.DegradedReads.Value() != 1 || c.ReconstructedPages.Value() != 1 {
		t.Fatalf("degraded counters = %d/%d, want 1/1",
			c.DegradedReads.Value(), c.ReconstructedPages.Value())
	}

	// The reconstructed page is re-pushed to its home provider in the
	// background, so redundancy returns without the repair agent.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := cl.DataStores[home-1].GetPage(b.ID(), write, 0); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reconstructed shard never re-pushed to its home provider")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// leafPlacement resolves page 0's write identity and home provider ID.
func leafPlacement(t *testing.T, b *core.Blob, v meta.Version) (uint64, uint32) {
	t.Helper()
	leaves, err := b.ReadMeta(context.Background(), 0, pageSize, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 1 || leaves[0].Leaf.Stripe == nil {
		t.Fatalf("unexpected leaves: %+v", leaves)
	}
	return leaves[0].Leaf.Write, leaves[0].Leaf.Providers[0]
}

// TestExplicitRedundancyOverridesAdvertisedRS pins the mode-precedence
// rule: a client that explicitly chose rs(1,0) creates single-copy
// blobs even on a cluster advertising rs(k,m); an unset option defers
// to the advertisement.
func TestExplicitRedundancyOverridesAdvertisedRS(t *testing.T) {
	cl, _ := launch(t, cluster.Config{
		DataProviders: 6,
		MetaProviders: 6,
		Redundancy:    erasure.Redundancy{K: 4, M: 2},
	})
	ctx := context.Background()

	opts := cl.ClientOptions("explicit-client")
	var err error
	opts.Redundancy, err = erasure.ParseRedundancy("rs(1,0)")
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := core.NewClient(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer explicit.Close()
	b, err := explicit.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Redundancy(); got != (erasure.Redundancy{K: 1}) {
		t.Fatalf("explicit rs(1,0) produced %v", got)
	}

	// Unset defers to the advertisement.
	def, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	b2, err := def.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.Redundancy(); got != (erasure.Redundancy{K: 4, M: 2}) {
		t.Fatalf("default client created %v, want rs(4,2)", got)
	}
}

// TestPlacementShortOfProviders pins the write's answer to a placement
// group smaller than its stripe: an rs(1,2) write on two providers
// stores the one copy it could place beside its page and records the
// two as its stripe's slots, the copy under the slot's parity rel; an
// rs(2,2) write there fails loudly instead of dropping fault tolerance.
func TestPlacementShortOfProviders(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2},
		func(o *core.Options) { o.Redundancy = erasure.Redundancy{K: 1, M: 2} })
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(43, 2*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatalf("rs(1,2) write on two providers: %v", err)
	}
	leaves, err := b.ReadMeta(ctx, 0, 2*pageSize, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		provs := l.Leaf.Providers
		if len(provs) != 2 || provs[0] == provs[1] || l.Leaf.Stripe != nil {
			t.Fatalf("page %d: slots %v (stripe %+v), want two distinct providers", l.Page, provs, l.Leaf.Stripe)
		}
		for i, id := range provs {
			rel := l.Leaf.ProviderRel(i)
			got, ok := cl.DataStores[id-1].GetPage(b.ID(), l.Leaf.Write, rel)
			if want := data[l.Page*pageSize : (l.Page+1)*pageSize]; !ok || !bytes.Equal(got, want) {
				t.Fatalf("page %d: slot %d (provider %d, rel %#x) holds %v bytes, present %v", l.Page, i, id, rel, len(got), ok)
			}
		}
		if want := erasure.ParityRel(uint32(l.Page), 0, 1); l.Leaf.ProviderRel(1) != want {
			t.Fatalf("page %d: copy at rel %#x, want the parity rel %#x", l.Page, l.Leaf.ProviderRel(1), want)
		}
	}
	got := make([]byte, len(data))
	if _, err := b.Read(ctx, got, 0, v); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}

	_, rs := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2},
		func(o *core.Options) { o.Redundancy = erasure.Redundancy{K: 2, M: 2} })
	b2, err := rs.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Write(ctx, data, 0); err == nil || !strings.Contains(err.Error(), "needs 4 distinct live providers") {
		t.Fatalf("rs(2,2) write on two providers: %v, want the placement refused", err)
	}
}
