package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"blob/internal/cluster"
	"blob/internal/erasure"
	"blob/internal/repair"
)

// launchRS starts a 6-provider rs(4,2) deployment (persistent when dir
// is non-empty) and writes a multi-stripe, multi-write data set,
// returning the expected latest contents.
func launchRS(t *testing.T, dir string) (*cluster.Cluster, []byte, uint64) {
	t.Helper()
	cl, err := launch(t, cluster.Config{
		DataProviders: 6,
		MetaProviders: 6,
		Redundancy:    erasure.Redundancy{K: 4, M: 2},
		DataDir:       dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		cl.Shutdown()
		t.Fatal(err)
	}
	defer c.Close()

	const pageSize = 1 << 10
	b, err := c.CreateBlob(ctx, pageSize, 1<<20)
	if err != nil {
		cl.Shutdown()
		t.Fatal(err)
	}
	if got := b.Redundancy(); got != (erasure.Redundancy{K: 4, M: 2}) {
		cl.Shutdown()
		t.Fatalf("blob redundancy = %v (client adoption of the advertised mode failed)", got)
	}

	// 3 writes x 10 pages: full stripes plus a short final stripe each,
	// overlapping so several versions stay live.
	rng := rand.New(rand.NewSource(7))
	want := make([]byte, 24*pageSize)
	for i := 0; i < 3; i++ {
		seg := make([]byte, 10*pageSize)
		rng.Read(seg)
		off := uint64(i) * 7 * pageSize
		if _, err := b.Write(ctx, seg, off); err != nil {
			cl.Shutdown()
			t.Fatalf("write %d: %v", i, err)
		}
		copy(want[off:], seg)
	}
	return cl, want, b.ID()
}

// readAll reads the whole expected extent with a fresh client.
func readAll(t *testing.T, cl *cluster.Cluster, blobID uint64, want []byte) error {
	t.Helper()
	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		return err
	}
	defer c.Close()
	b, err := c.OpenBlob(ctx, blobID)
	if err != nil {
		return err
	}
	buf := make([]byte, len(want))
	if _, err := b.ReadLatest(ctx, buf, 0); err != nil {
		return err
	}
	if !bytes.Equal(buf, want) {
		return fmt.Errorf("read content mismatch")
	}
	return nil
}

// TestErasureRoundTrip covers the healthy rs(4,2) path: striped writes
// (including short stripes), reads, and the expected storage footprint.
func TestErasureRoundTrip(t *testing.T) {
	cl, want, blobID := launchRS(t, "")
	defer cl.Shutdown()
	if err := readAll(t, cl, blobID, want); err != nil {
		t.Fatal(err)
	}
	// 30 logical pages in stripes of (4,2),(4,2),(2,2) per 10-page
	// write: 10 data + 6 parity = 16 shards per write, 48 total.
	if got := cl.TotalDataPages(); got != 48 {
		t.Fatalf("stored shards = %d, want 48 (data+parity)", got)
	}
}

// TestWritePushesOncePerProvider counts the MPutPages requests the
// providers serve for one traced 16-page write on a 3-provider cluster.
// Under rs(2,1) the 24 shard pages of 8 stripes go out grouped by
// provider across stripes: exactly 3 pushes. Under 2-replication the 32
// page copies likewise make one push per provider that holds any.
func TestWritePushesOncePerProvider(t *testing.T) {
	for _, tt := range []struct {
		name   string
		cfg    cluster.Config
		pushes int // 0: one per provider the write reached
	}{
		{"rs(2,1)", cluster.Config{Redundancy: erasure.Redundancy{K: 2, M: 1}}, 3},
		{"replicate r=2", cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: 1}}, 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := tt.cfg
			cfg.DataProviders, cfg.MetaProviders, cfg.TraceSampleEvery = 3, 3, 1
			cl, err := launch(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Shutdown()
			ctx := context.Background()
			c, err := cl.NewClient(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const pageSize = 4096
			b, err := c.CreateBlob(ctx, pageSize, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 16*pageSize)
			rand.New(rand.NewSource(3)).Read(want)
			if _, err := b.Write(ctx, want, 0); err != nil {
				t.Fatal(err)
			}

			var traceID uint64
			for _, sp := range c.Tracer().Spans() {
				if sp.Name == "core.WriteBlob" {
					traceID = sp.TraceID
				}
			}
			pushes, nodes := 0, make(map[string]int)
			for _, sp := range cl.TraceSpans(traceID) {
				if sp.Name == "provider.MPutPages" {
					pushes++
					nodes[sp.Node]++
				}
			}
			if traceID == 0 || pushes == 0 {
				t.Fatalf("no traced write or no MPutPages spans (trace %#x)", traceID)
			}
			wantPushes := tt.pushes
			if wantPushes == 0 {
				wantPushes = len(nodes)
			}
			if pushes != wantPushes || len(nodes) != pushes {
				t.Fatalf("%d MPutPages served across providers %v, want %d, one per provider", pushes, nodes, wantPushes)
			}
			if err := readAll(t, cl, b.ID(), want); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestErasureDegradedReads is the fault-tolerance half of the
// acceptance bar: with any 2 of the 6 providers stopped, every page
// must remain readable via inline stripe reconstruction. Providers are
// persistent so each pair's restart brings its shards back (a RAM
// provider restarts empty, which would accumulate losses beyond m).
func TestErasureDegradedReads(t *testing.T) {
	cl, want, blobID := launchRS(t, t.TempDir())
	defer cl.Shutdown()

	// All distinct provider pairs: rs(4,2) must survive every one.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			cl.DataServers[i].Close()
			cl.DataServers[j].Close()
			if err := readAll(t, cl, blobID, want); err != nil {
				t.Fatalf("read with providers %d,%d stopped: %v", i, j, err)
			}
			if err := cl.RestartDataProvider(i); err != nil {
				t.Fatal(err)
			}
			if err := cl.RestartDataProvider(j); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestErasureReconstructionRepair is the acceptance scenario: a
// 6-provider rs(4,2) cluster with one provider's data dir wiped returns
// to full redundancy via the repair agent's reconstruction plan, proven
// by a clean second pass and by reads surviving two further stops.
func TestErasureReconstructionRepair(t *testing.T) {
	cl, want, blobID := launchRS(t, t.TempDir())
	defer cl.Shutdown()
	ctx := context.Background()
	fullPages := cl.TotalDataPages()

	if err := cl.WipeDataProvider(2); err != nil {
		t.Fatal(err)
	}
	if cl.TotalDataPages() == fullPages {
		t.Fatal("setup: wipe removed nothing")
	}

	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	agent := repair.New(c)
	rep, err := agent.RepairBlob(ctx, blobID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesReconstructed == 0 {
		t.Fatalf("repair reconstructed nothing: %+v", rep)
	}
	if !rep.FullyRedundant() {
		t.Fatalf("repair left slots degraded: %+v", rep)
	}
	if got := cl.TotalDataPages(); got != fullPages {
		t.Fatalf("pages after repair = %d, want %d", got, fullPages)
	}

	// Convergence proof: a second pass finds nothing missing.
	verify, err := agent.RepairBlob(ctx, blobID)
	if err != nil {
		t.Fatal(err)
	}
	if verify.PagesMissing != 0 || !verify.FullyRedundant() {
		t.Fatalf("verify pass = %+v, want clean", verify)
	}

	// Full redundancy restored: any two providers (including the
	// repaired one) may now stop without losing a page.
	cl.DataServers[2].Close()
	cl.DataServers[5].Close()
	if err := readAll(t, cl, blobID, want); err != nil {
		t.Fatalf("read after repair with providers 2,5 stopped: %v", err)
	}
}

// TestErasureRepairIngestsLessThanReplication pins the storage and
// repair-ingest claims of docs/erasure.md §7 with exact counts. The
// same 72 logical pages on 6 providers are stored as 2x pages under
// rs(1,1), two copies, and 1.5x under rs(4,2), both spread evenly;
// after one provider loses everything, repair pushes a third of the
// logical pages back into it under rs(1,1) and a quarter under rs(4,2).
func TestErasureRepairIngestsLessThanReplication(t *testing.T) {
	const (
		pageSize = 1 << 10
		writes   = 6
		segPages = 12 // three full rs(4,2) stripes
		logical  = writes * segPages
	)
	run := func(cfg cluster.Config) (stored int64, rep repair.Report) {
		cfg.DataProviders, cfg.MetaProviders = 6, 6
		cl, err := launch(t, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Shutdown()
		ctx := context.Background()
		c, err := cl.NewClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		b, err := c.CreateBlob(ctx, pageSize, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, logical*pageSize)
		rand.New(rand.NewSource(11)).Read(want)
		for i := 0; i < writes; i++ {
			off := i * segPages * pageSize
			if _, err := b.Write(ctx, want[off:off+segPages*pageSize], uint64(off)); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		stored = cl.TotalDataPages()

		if err := cl.WipeDataProvider(0); err != nil {
			t.Fatal(err)
		}
		if rep, err = repair.New(c).RepairBlob(ctx, b.ID()); err != nil {
			t.Fatal(err)
		}
		if got := cl.TotalDataPages(); !rep.FullyRedundant() || got != stored {
			t.Fatalf("%v: repair left %d of %d pages: %+v", b.Redundancy(), got, stored, rep)
		}
		if err := readAll(t, cl, b.ID(), want); err != nil {
			t.Fatalf("%v: read after repair: %v", b.Redundancy(), err)
		}
		return stored, rep
	}
	replStored, repl := run(cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: 1}})
	rsStored, rs := run(cluster.Config{Redundancy: erasure.Redundancy{K: 4, M: 2}})

	if replStored != 2*logical || rsStored != logical*3/2 {
		t.Errorf("stored pages for %d logical: %d replicated, %d rs(4,2); want %d and %d",
			logical, replStored, rsStored, 2*logical, logical*3/2)
	}
	if repl.PagesReconstructed != logical/3 || repl.ReconstructedBytes != logical/3*pageSize {
		t.Errorf("rs(1,1) repair = %+v, want %d pages pushed into the wiped provider", repl, logical/3)
	}
	if rs.PagesReconstructed != logical/4 || rs.ReconstructedBytes != logical/4*pageSize {
		t.Errorf("rs(4,2) repair = %+v, want %d shards reconstructed into the wiped provider", rs, logical/4)
	}
}
