package cluster_test

// The write half of the gray-failure evidence (docs/robustness.md,
// "Hedged reads"): every call a client's pool carries feeds its peer's
// latency estimate and breaker, so a provider that crawls or fails on
// pushes is seen by writes alone, with no read to notice it.

import (
	"context"
	"sync"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/erasure"
)

// writeOnlyCluster launches rs(1,1) on 4 providers and returns a client,
// a blob of 4-page writes' worth of room per write, and the address of
// provider victim. Each 4-page write places its pages round-robin over
// the providers, so every write pushes to every one of them.
func writeOnlyCluster(t *testing.T, victim int) (*cluster.Cluster, *core.Client, *core.Blob, string) {
	t.Helper()
	cl, err := launch(t, cluster.Config{
		DataProviders: 4,
		MetaProviders: 4,
		Redundancy:    erasure.Redundancy{K: 1, M: 1},
		RepairTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Shutdown)
	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	b, err := c.CreateBlob(ctx, writePage, 64*writePages*writePage)
	if err != nil {
		t.Fatal(err)
	}
	provs, err := c.AllProviders(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range provs {
		if p.ID == uint32(victim)+1 {
			return cl, c, b, p.Addr
		}
	}
	t.Fatalf("no provider %d", victim)
	return nil, nil, nil, ""
}

const (
	writePage  = 1 << 10
	writePages = 4
)

// TestSlowProviderFeedsWriteLatency: a provider slowed by 50 ms per
// frame shows in the client's latency estimate after 20 writes and not
// one read.
func TestSlowProviderFeedsWriteLatency(t *testing.T) {
	const victim = 1
	cl, c, b, addr := writeOnlyCluster(t, victim)
	cl.SlowProvider(victim, 50*time.Millisecond, 0)
	defer cl.Heal()

	// 20 writes, four at a time, at distinct offsets.
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				off := uint64(w*5+i) * writePages * writePage
				if _, err := b.Write(ctx, make([]byte, writePages*writePage), off); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("write: %v", err)
	}
	srtt, _, samples := c.Pool().Latency(addr)
	if samples < 20 || srtt < 40*time.Millisecond {
		t.Fatalf("slow provider after 20 writes: %d samples, srtt %v; want >= 20 samples and srtt >= 40ms", samples, srtt)
	}
}

// TestFailingPushesOpenBreaker: a provider that fails every push opens
// its breaker in the writing client, with no read.
func TestFailingPushesOpenBreaker(t *testing.T) {
	const victim = 2
	cl, c, b, addr := writeOnlyCluster(t, victim)
	cl.FlakyProvider(victim, 1) // every frame resets the connection
	defer cl.Heal()

	ctx := context.Background()
	for i := 0; ; i++ {
		open := c.Pool().OpenBreakers()
		if len(open) == 1 && open[0] == addr {
			return
		}
		if len(open) > 0 {
			t.Fatalf("open breakers %v, want only %s", open, addr)
		}
		if i == 20 {
			t.Fatalf("breaker on %s still closed after %d writes that pushed to it", addr, i)
		}
		if _, err := b.Write(ctx, make([]byte, writePages*writePage), 0); err == nil {
			t.Fatal("a write that pushed to a provider failing every frame succeeded")
		}
	}
}
