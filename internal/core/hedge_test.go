package core_test

// Gray-failure tests (docs/robustness.md): a provider that stalls
// without crashing — heartbeats keep flowing, the manager keeps
// placing data on it — must not stall reads. Hedged reads mask it on
// the replicated path, stripe reconstruction (with the straggler's own
// answer as the fallback) on the erasure-coded path, and circuit breakers stop routing to it
// once the evidence accumulates.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/netsim"
	"blob/internal/trace"
)

// tierProvider returns the replica-tier provider IDs of the page at
// offset 0.
func tierProviders(t *testing.T, b *core.Blob, v meta.Version) []uint32 {
	t.Helper()
	leaves, err := b.ReadMeta(context.Background(), 0, pageSize, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 1 {
		t.Fatalf("ReadMeta: %d leaves, want 1", len(leaves))
	}
	return leaves[0].Leaf.Providers
}

func TestHedgedReadMasksStalledReplica(t *testing.T) {
	cl, c := launch(t, cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()

	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(9, 8*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}

	// Stall page 0's primary replica: its connections stay up, its
	// heartbeats keep flowing, but no page fetch to it ever returns.
	provs := tierProviders(t, b, v)
	if len(provs) != 2 {
		t.Fatalf("page 0 has %d replicas, want 2", len(provs))
	}
	cl.StallProvider(int(provs[0]) - 1)
	defer cl.Heal()

	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	start := time.Now()
	clear(got)
	if _, err := b.Read(rctx, got, 0, v); err != nil {
		t.Fatalf("read with one stalled replica: %v", err)
	}
	elapsed := time.Since(start)
	if !bytes.Equal(got, data) {
		t.Fatal("hedged read returned wrong bytes")
	}
	if c.HedgedReads.Value() == 0 {
		t.Fatal("read never hedged despite a stalled primary")
	}
	if c.HedgeWins.Value() == 0 {
		t.Fatal("no hedge win recorded despite a stalled primary")
	}
	// The stall is unbounded, so completing at all proves the hedge;
	// the bound below only guards against pathological hedge delays.
	if elapsed > 5*time.Second {
		t.Fatalf("hedged read took %v", elapsed)
	}
}

func TestDisableHedgingStalledReplicaBlocksRead(t *testing.T) {
	cl, c := launch(t, cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: 1}}, unhedged)
	ctx := context.Background()

	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(11, 4*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}

	provs := tierProviders(t, b, v)
	cl.StallProvider(int(provs[0]) - 1)
	defer cl.Heal()

	// Without hedging the read waits out the stalled primary until its
	// deadline: the ablation the hedge exists to beat.
	rctx, cancel := context.WithTimeout(ctx, 400*time.Millisecond)
	defer cancel()
	got := make([]byte, len(data))
	if _, err := b.Read(rctx, got, 0, v); err == nil {
		t.Fatal("read with hedging disabled completed despite the stalled primary")
	}
	if c.HedgedReads.Value() != 0 {
		t.Fatalf("HedgedReads = %d with hedging disabled", c.HedgedReads.Value())
	}

	cl.Heal()
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after heal returned wrong bytes")
	}
}

// TestHealthyHedgeIssuesNoExtraGets is the no-fault half of the hedge
// contract (docs/robustness.md): with every provider healthy, the same
// reads with hedging on cost the providers at most 10 % more page gets
// than with hedging off — slack for a hedge or two fired by scheduler
// noise; a hedge that fired on every fetch would double them — and a
// client with hedging off never hedges.
func TestHealthyHedgeIssuesNoExtraGets(t *testing.T) {
	const reads = 30
	cell := func(disableHedging bool) (gets, hedged int64) {
		cl, c := launch(t, cluster.Config{
			Redundancy: erasure.Redundancy{K: 1, M: 1},
			// A fabric with latency: a 16-page fetch takes most of the
			// hedge delay's 10 ms floor, so a mispriced delay shows.
			Net:        netsim.Grid5000(),
			CacheNodes: -1, // warm metadata cache: the counted path is page fetches
		}, func(o *core.Options) { o.DisableHedging = disableHedging })
		ctx := context.Background()
		b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(31, 16*pageSize)
		v, err := b.Write(ctx, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		providerGets := func() (n int64) {
			for _, svc := range cl.DataServices {
				n += svc.Snapshot().Gets
			}
			return n
		}
		got := make([]byte, len(data))
		// The first reads seed every provider's latency estimator, so
		// the counted ones run on the adaptive hedge delay.
		for i := -4; i < reads; i++ {
			if i == 0 {
				gets, hedged = providerGets(), c.HedgedReads.Value()
			}
			clear(got)
			if _, err := b.Read(ctx, got, 0, v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read %d returned wrong bytes", i)
			}
		}
		return providerGets() - gets, c.HedgedReads.Value() - hedged
	}
	off, offHedged := cell(true)
	on, onHedged := cell(false)
	t.Logf("page gets for %d reads: %d hedging off, %d hedging on (%d hedged)", reads, off, on, onHedged)
	if off != reads*16 {
		t.Fatalf("hedging off: %d page gets for %d reads of 16 pages, want one per page", off, reads)
	}
	if offHedged != 0 {
		t.Errorf("hedging off: %d hedged reads", offHedged)
	}
	if on > off*110/100 {
		t.Errorf("no-fault hedge overhead: %d page gets hedged against %d unhedged", on, off)
	}
}

func TestStripedHedgeReconstructsStalledShard(t *testing.T) {
	cl, c := launch(t, cluster.Config{
		DataProviders: 6,
		MetaProviders: 6,
		Redundancy:    erasure.Redundancy{K: 4, M: 2},
	})
	ctx := context.Background()

	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(13, 4*pageSize) // one rs(4,2) stripe
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}

	// Stall page 0's home provider: the direct shard fetch to it is
	// abandoned after the hedge delay and the page served by decoding
	// the stripe's other shards.
	_, home := leafPlacement(t, b, v)
	cl.StallProvider(int(home) - 1)
	defer cl.Heal()

	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	clear(got)
	if _, err := b.Read(rctx, got, 0, v); err != nil {
		t.Fatalf("striped read with one stalled provider: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reconstructed read returned wrong bytes")
	}
	if c.HedgedReads.Value() == 0 || c.HedgeWins.Value() == 0 {
		t.Fatalf("rs hedge counters = %d/%d, want both > 0",
			c.HedgedReads.Value(), c.HedgeWins.Value())
	}
	if c.DegradedReads.Value() == 0 || c.ReconstructedPages.Value() == 0 {
		t.Fatalf("reconstruction counters = %d/%d, want both > 0",
			c.DegradedReads.Value(), c.ReconstructedPages.Value())
	}
}

// TestStripedHedgeSlowIsNotLost: two of an rs(2,1) stripe's three
// providers answer past the hedge delay at the same time. Both data
// shards are then stragglers and only the parity shard is prompt, so
// reconstruction alone is one shard short — but nothing is lost, only
// slow. Every read must succeed byte-identical by falling back to the
// stragglers' own answers; skipping their slots failed such reads with
// "page unavailable … 1 of 3 present".
func TestStripedHedgeSlowIsNotLost(t *testing.T) {
	cl, c := launch(t, cluster.Config{
		DataProviders: 3,
		MetaProviders: 3,
		Redundancy:    erasure.Redundancy{K: 2, M: 1},
	})
	ctx := context.Background()

	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(29, 8*pageSize) // four rs(2,1) stripes
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	defer cl.Heal()
	for i := 0; i < 200; i++ {
		// Thirty healthy reads, ten slow ones: the healthy stretch pulls
		// the latency estimators back down towards the hedge-delay floor,
		// so every slow stretch opens with reads whose hedge delay the
		// slow providers outlive.
		switch i % 40 {
		case 0:
			cl.Heal()
		case 30:
			cl.SlowProvider(0, 20*time.Millisecond, 5*time.Millisecond)
			cl.SlowProvider(1, 20*time.Millisecond, 5*time.Millisecond)
		}
		clear(got)
		if _, err := b.Read(ctx, got, 0, v); err != nil {
			t.Fatalf("read %d with two slow providers: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
	}
	t.Logf("%d hedged shard fetches, %d pages served without their straggler", c.HedgedReads.Value(), c.HedgeWins.Value())
	if c.HedgedReads.Value() == 0 {
		t.Fatal("no shard fetch outlived its hedge delay: the test exercised nothing")
	}
}

// TestSlowReplicaIsNotLost is the replicated twin of
// TestStripedHedgeSlowIsNotLost: page 0's first replica answers long
// past its hedge delay. When the replica behind it has lost the page,
// the slow replica still serves it, so the read succeeds byte-identical;
// a hedge that dropped the slow replica failed it with "page
// unavailable … failed on all 2 replicas". When the replica behind it
// is behind an open breaker, the read does not hedge to it and waits
// the slow replica out.
func TestSlowReplicaIsNotLost(t *testing.T) {
	for _, tt := range []struct {
		name      string
		nextOpen  bool // the next replica is up, behind an open breaker
		wantHedge bool
	}{
		{"next lost", false, true},
		{"next behind an open breaker", true, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cl, c := launch(t, cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: 1}})
			ctx := context.Background()
			b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(37, pageSize)
			v, err := b.Write(ctx, data, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			// Seed the latency estimators, so the hedge delay is
			// adaptive and far below the slow replica's latency.
			for i := 0; i < 4; i++ {
				if _, err := b.Read(ctx, got, 0, v); err != nil {
					t.Fatal(err)
				}
			}

			walk := tierProviders(t, b, v)
			head, next := walk[0], walk[1]
			cl.SlowProvider(int(head)-1, 300*time.Millisecond, 0)
			defer cl.Heal()
			if tt.nextOpen {
				openBreaker(t, c, next)
			} else if wipeStore(cl.DataStores[next-1], b.ID()) == 0 {
				t.Fatal("test bug: the next replica held no pages")
			}
			slowGets := cl.DataServices[head-1].GetLatency.Count()
			nextGets := cl.DataServices[next-1].GetLatency.Count()
			hedged := c.HedgedReads.Value()

			rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			clear(got)
			if _, err := b.Read(rctx, got, 0, v); err != nil {
				t.Fatalf("read with a slow first replica: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read returned wrong bytes")
			}
			if n := cl.DataServices[head-1].GetLatency.Count(); n == slowGets {
				t.Error("the slow replica served no get")
			}
			if hedges := c.HedgedReads.Value() - hedged; (hedges > 0) != tt.wantHedge {
				t.Errorf("%d hedged fetches, want hedging %v", hedges, tt.wantHedge)
			}
			if tt.nextOpen {
				if n := cl.DataServices[next-1].GetLatency.Count(); n != nextGets {
					t.Errorf("provider %d behind an open breaker served %d gets", next, n-nextGets)
				}
			}
		})
	}
}

// TestHedgeKeepsLargeReadPace: the hedge delay is priced per provider
// on the reads it has seen, not on the size of the group it times. After
// one-page reads, a 1 MiB read outlives that delay on transfer time
// alone and hedges, but its stragglers are nearly done: the read must
// still finish at about the fabric's transfer time. A hedge that gave
// up on the stragglers and asked the next replicas afresh paid the
// transfer twice (~185 ms against ~94 ms on this fabric, r=2 and r=3).
func TestHedgeKeepsLargeReadPace(t *testing.T) {
	const pages = 256
	for _, r := range []int{2, 3} {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			fabric := netsim.Grid5000()
			_, c := launch(t, cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: r - 1}, Net: fabric, CacheNodes: -1})
			ctx := context.Background()
			b, err := c.CreateBlob(ctx, pageSize, pages*pageSize)
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(41, pages*pageSize)
			v, err := b.Write(ctx, data, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := b.Read(ctx, got, 0, v); err != nil { // warms the metadata cache
				t.Fatal(err)
			}
			// One-page reads price every provider's hedge delay at its
			// floor, far below the large read's transfer time.
			for i := 0; i < 6; i++ {
				for p := uint64(0); p < 16; p++ {
					if _, err := b.Read(ctx, got[:pageSize], p*pageSize, v); err != nil {
						t.Fatal(err)
					}
				}
			}

			hedged := c.HedgedReads.Value()
			start := time.Now()
			clear(got)
			if _, err := b.Read(ctx, got, 0, v); err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			if !bytes.Equal(got, data) {
				t.Fatal("large read returned wrong bytes")
			}
			transfer := time.Duration(float64(len(data)) / fabric.BandwidthBps * float64(time.Second))
			t.Logf("r=%d: %d-page read in %v (fabric transfer time %v), %d hedge fetches",
				r, pages, elapsed, transfer, c.HedgedReads.Value()-hedged)
			if c.HedgedReads.Value() == hedged {
				t.Fatal("the large read never hedged: the test exercised nothing")
			}
			if elapsed > transfer*3/2 {
				t.Errorf("large read took %v, want at most 1.5x the transfer time %v", elapsed, transfer)
			}
		})
	}
}

func TestBreakerOpensOnFlakyProviderAndRecovers(t *testing.T) {
	cl, c := launch(t, cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()

	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(17, 8*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}

	provs := tierProviders(t, b, v)
	victim := int(provs[0]) - 1
	cl.FlakyProvider(victim, 1) // every frame resets the connection
	defer cl.Heal()

	// Keep reading: each attempt on the flaky provider fails and the
	// replica serves the page, while the failures accumulate into
	// the client's breaker until it opens.
	got := make([]byte, len(data))
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Pool().OpenBreakers()) == 0 {
		rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, err := b.Read(rctx, got, 0, v)
		cancel()
		if err != nil {
			t.Fatalf("read during flaky provider: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read during flaky provider returned wrong bytes")
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened on the flaky provider")
		}
	}

	// Heal and keep reading: once OpenFor elapses routing asks the peer
	// in its turn again, the first success closes the breaker —
	// journaling the transition.
	cl.Heal()
	breakerEvents := func() (opened, closed bool) {
		for _, ev := range cl.Events() {
			switch ev.Type {
			case trace.BreakerOpen:
				opened = true
			case trace.BreakerClose:
				closed = true
			}
		}
		return opened, closed
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, err := b.Read(rctx, got, 0, v)
		cancel()
		if err != nil {
			t.Fatalf("read after heal: %v", err)
		}
		if _, closed := breakerEvents(); closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after heal")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(c.Pool().OpenBreakers()) > 0 {
		t.Fatalf("breakers still open after close event: %v", c.Pool().OpenBreakers())
	}
	if opened, closed := breakerEvents(); !opened || !closed {
		t.Fatalf("journal events: open=%v close=%v, want both", opened, closed)
	}
}
