package repair_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/erasure"
	"blob/internal/gc"
	"blob/internal/mstore"
	"blob/internal/provider"
	"blob/internal/repair"
	"blob/internal/trace"
)

const pageSize = 4 << 10

func launch(t *testing.T, cfg cluster.Config) (*cluster.Cluster, *core.Client) {
	t.Helper()
	cl, err := cluster.Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Shutdown)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return cl, c
}

func pattern(seed byte, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = seed + byte(i%31)
	}
	return buf
}

// TestRepairRestoresWipedProvider is the acceptance test for the repair
// subsystem (ISSUE 3): a 3-provider / 2-replica persistent cluster loses
// one provider's entire data directory; one repair pass must return the
// replica set to full strength — proven by reading every page with each
// *other* provider stopped afterward, so every page whose surviving
// replica was elsewhere must now be served by the wiped-and-repaired
// provider.
func TestRepairRestoresWipedProvider(t *testing.T) {
	cl, c := launch(t, cluster.Config{
		DataProviders: 3,
		MetaProviders: 3,
		Redundancy:    erasure.Redundancy{K: 1, M: 1},
		DataDir:       t.TempDir(),
	})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 256*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Several writes, partially overlapping, so multiple versions and
	// writes are live at once.
	data1 := pattern(1, 12*pageSize)
	if _, err := b.Write(ctx, data1, 0); err != nil {
		t.Fatal(err)
	}
	data2 := pattern(2, 6*pageSize)
	if _, err := b.Write(ctx, data2, 4*pageSize); err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(ctx, pattern(3, 2*pageSize), 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 18*pageSize)
	copy(want, data1)
	copy(want[4*pageSize:], data2)
	copy(want[16*pageSize:], pattern(3, 2*pageSize))

	// 12 + 6 + 2 pages were written; superseded copies stay until GC, so
	// every one of the 20 pages is live on 2 replicas.
	totalBefore := cl.TotalDataPages()
	if totalBefore != 2*20 {
		t.Fatalf("pages before crash = %d, want %d", totalBefore, 2*20)
	}

	// Total disk loss on provider 0: restart over a destroyed data dir.
	if err := cl.WipeDataProvider(0); err != nil {
		t.Fatal(err)
	}
	if cl.TotalDataPages() == totalBefore {
		t.Fatal("test bug: wipe lost no pages")
	}

	// One repair pass restores redundancy; a second proves convergence.
	agent := repair.New(c)
	rep, err := agent.RepairBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesMissing == 0 || rep.PagesReconstructed == 0 {
		t.Fatalf("repair found/fixed nothing: %+v", rep)
	}
	if !rep.FullyRedundant() {
		t.Fatalf("repair left slots degraded: %+v", rep)
	}
	if cl.TotalDataPages() != totalBefore {
		t.Fatalf("pages after repair = %d, want %d", cl.TotalDataPages(), totalBefore)
	}
	verify, err := agent.RepairBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if verify.PagesMissing != 0 || !verify.FullyRedundant() {
		t.Fatalf("second pass still degraded: %+v", verify)
	}

	// The proof: with any one *other* provider stopped, every page whose
	// replica set was {0, j} must now be served by provider 0 itself.
	for j := 1; j < 3; j++ {
		cl.DataServers[j].Close()
		got := make([]byte, len(want))
		if _, err := b.Read(ctx, got, 0, v); err != nil {
			t.Fatalf("read with provider %d stopped after repair: %v", j, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("wrong bytes with provider %d stopped", j)
		}
		// Disk-backed: restart re-serves the same data at the same addr.
		if err := cl.RestartDataProvider(j); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRepairLoopHealsWithoutClientInvolvement pins the cluster wiring:
// with RepairInterval set, a wiped provider converges back to full
// redundancy with no client action at all.
func TestRepairLoopHealsWithoutClientInvolvement(t *testing.T) {
	cl, c := launch(t, cluster.Config{
		DataProviders:  3,
		MetaProviders:  3,
		Redundancy:     erasure.Redundancy{K: 1, M: 1},
		DataDir:        t.TempDir(),
		RepairInterval: 20 * time.Millisecond,
	})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, pattern(7, 8*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	total := cl.TotalDataPages()
	if err := cl.WipeDataProvider(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for cl.TotalDataPages() != total {
		if time.Now().After(deadline) {
			t.Fatalf("repair loop never restored redundancy: %d/%d pages",
				cl.TotalDataPages(), total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthySweepMovesNoPages pins that a repair pass over a healthy
// cluster settles every slot from the MListWrites answers alone: no
// provider serves a page read during the pass.
func TestHealthySweepMovesNoPages(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 3, MetaProviders: 3, Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, pattern(4, 10*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	gets := make([]int64, len(cl.DataServices))
	for i, sv := range cl.DataServices {
		gets[i] = sv.Snapshot().Gets
	}
	rep, err := repair.New(c).RepairBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesChecked != 20 { // 10 pages × 2 replicas
		t.Fatalf("checked %d slots, want 20", rep.PagesChecked)
	}
	if rep.PagesMissing != 0 || rep.ReconstructedBytes != 0 {
		t.Fatalf("healthy cluster diagnosed degraded: %+v", rep)
	}
	if !rep.FullyRedundant() {
		t.Errorf("healthy cluster not fully redundant: %+v", rep)
	}
	// Serving MGetPages reads the store.
	for i, sv := range cl.DataServices {
		if st := sv.Snapshot(); st.Gets != gets[i] {
			t.Errorf("provider %d served %d page reads during the pass", i, st.Gets-gets[i])
		}
	}
}

// TestSweepSeesEveryLostSlot pins the exact holdings answer on the
// disk-backed stores blobnode -data-dir runs, whose segments keep a
// deleted page's put record until compaction: a provider missing one
// slot is diagnosed missing exactly once and healed, whether the slot is
// an erasure shard or a replica with a stray page of the same write
// beside it.
func TestSweepSeesEveryLostSlot(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     cluster.Config
		pages   int
		stray   bool  // put a stray rel 40 of the same write on provider 0
		lose    int   // index of the rel provider 0 loses, among those it holds
		rebuilt int64 // PagesReconstructed
		after   int64 // provider 0's page count after the sweep
	}{
		{"rs(2,1) shard", cluster.Config{DataProviders: 3, MetaProviders: 3, Redundancy: erasure.Redundancy{K: 2, M: 1}},
			8, false, 0, 1, 4},
		{"r=2 replica beside a stray", cluster.Config{DataProviders: 2, MetaProviders: 2, Redundancy: erasure.Redundancy{K: 1, M: 1}},
			4, true, 1, 1, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.DataDir = t.TempDir()
			cl, c := launch(t, tc.cfg)
			ctx := context.Background()
			b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Write(ctx, pattern(5, tc.pages*pageSize), 0); err != nil {
				t.Fatal(err)
			}
			ps := cl.DataStores[0]
			var write uint64
			var rels []uint32
			ps.ForEachPage(func(_, w uint64, rel uint32, _ []byte) { write, rels = w, append(rels, rel) })
			slices.Sort(rels)
			lost := rels[tc.lose]
			ps.DeletePages(b.ID(), write, []uint32{lost})
			if tc.stray {
				if err := ps.PutPages([]provider.Page{{Blob: b.ID(), Write: write, RelPage: 40, Data: pattern(9, pageSize)}}); err != nil {
					t.Fatal(err)
				}
			}

			rep, err := repair.New(c).Sweep(ctx, b.ID())
			if err != nil {
				t.Fatal(err)
			}
			if rep.PagesMissing != 1 || rep.PagesReconstructed != tc.rebuilt || !rep.FullyRedundant() {
				t.Fatalf("sweep = %+v, want 1 missing, %d reconstructed", rep, tc.rebuilt)
			}
			if _, ok := ps.GetPage(b.ID(), write, lost); !ok {
				t.Fatalf("rel %d not restored", lost)
			}
			if got := ps.Snapshot().PageCount; got != tc.after {
				t.Fatalf("provider 0 holds %d pages, want %d", got, tc.after)
			}
		})
	}
}

// TestRepairToleratesCollectedVersions pins the GC interaction: repair
// of a blob whose old versions were collected walks only the surviving
// metadata and still converges.
func TestRepairToleratesCollectedVersions(t *testing.T) {
	cl, c := launch(t, cluster.Config{
		DataProviders: 3,
		MetaProviders: 3,
		Redundancy:    erasure.Redundancy{K: 1, M: 1},
		DataDir:       t.TempDir(),
		CacheNodes:    0,
	})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, pattern(1, 4*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, pattern(2, 4*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := gc.New(c).Collect(ctx, b.ID(), 2); err != nil {
		t.Fatal(err)
	}
	if err := cl.WipeDataProvider(0); err != nil {
		t.Fatal(err)
	}
	rep, err := repair.New(c).RepairBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyRedundant() {
		t.Fatalf("repair after GC left slots degraded: %+v", rep)
	}
	// Only v2's 4 pages remain live; both replicas must exist again.
	if got := cl.TotalDataPages(); got != 8 {
		t.Fatalf("pages after GC+repair = %d, want 8", got)
	}
}

// TestRepairFailsOnMetadataOutageMidWalk: the walk back through older
// versions stops quietly only at a version whose metadata is really
// gone (collected). Metadata providers that cannot be reached are not
// that: the pass must fail rather than report on the versions it got
// through before the outage.
func TestRepairFailsOnMetadataOutageMidWalk(t *testing.T) {
	cl, writer1 := launch(t, cluster.Config{DataProviders: 3, MetaProviders: 2, Redundancy: erasure.Redundancy{K: 1, M: 1}, CacheNodes: 1 << 10})
	ctx := context.Background()
	b1, err := writer1.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Write(ctx, pattern(1, 4*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	// A second client writes v2 over the same pages: its node cache now
	// holds all of v2's tree and nothing of v1's, so the walk resolves
	// the latest version without the providers and needs them for v1.
	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b2, err := c.OpenBlob(ctx, b1.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Write(ctx, pattern(2, 4*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	for _, srv := range cl.MetaServers {
		srv.Close()
	}
	rep, err := repair.New(c).RepairBlob(ctx, b1.ID())
	if err == nil {
		t.Fatalf("repair pass over unreachable metadata succeeded (truncated walk): %+v", rep)
	}
	if errors.Is(err, mstore.ErrMissingNode) || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("err = %v; want v1's fetch failure, not missing metadata", err)
	}
}

// TestRepairFailsOverToSecondSource pins the source-failover rule: when
// a source lists a page but serves bytes failing the leaf checksum, the
// rebuild must reach the copy holding good bytes — a rotten source can
// cost round trips, never strand a slot. The rotten copies are replaced,
// not only reported: first-wins puts would keep them, so the agent
// deletes each before it pushes the rebuilt page, and afterwards every
// copy reads back the written bytes and a second pass finds none
// missing.
func TestRepairFailsOverToSecondSource(t *testing.T) {
	cl, c := launch(t, cluster.Config{
		DataProviders: 3,
		MetaProviders: 3,
		Redundancy:    erasure.Redundancy{K: 1, M: 2},
		DataDir:       t.TempDir(),
	})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(ctx, pattern(6, 2*pageSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := b.ReadMeta(ctx, 0, 2*pageSize, v)
	if err != nil {
		t.Fatal(err)
	}

	// Target: provider 0 loses everything. Sources: providers 1 and 2
	// each hold ONE of the two pages rotten — deleted and re-put with
	// garbage — so each page has one good source left.
	if err := cl.WipeDataProvider(0); err != nil {
		t.Fatal(err)
	}
	for i, l := range leaves {
		id := uint32(2 + i) // store 1+i
		slot := slices.Index(l.Leaf.Providers, id)
		if slot < 0 {
			t.Fatalf("test bug: page %d has no copy on provider %d", i, id)
		}
		rel := l.Leaf.ProviderRel(slot)
		ps := cl.DataStores[1+i]
		ps.DeletePages(b.ID(), l.Leaf.Write, []uint32{rel})
		if err := ps.PutPages([]provider.Page{{Blob: b.ID(), Write: l.Leaf.Write, RelPage: rel, Data: pattern(99, pageSize)}}); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := repair.New(c).RepairBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrepairable != 0 {
		t.Fatalf("failover left slots stranded: %+v", rep)
	}
	// Provider 0 must hold both pages again, each rebuilt from the one
	// copy holding good bytes.
	if got := cl.DataStores[0].Snapshot().PageCount; got != 2 {
		t.Fatalf("target holds %d pages after repair, want 2", got)
	}
	written := pattern(6, 2*pageSize)
	for _, l := range leaves {
		want := written[l.Page*pageSize : (l.Page+1)*pageSize]
		for slot, id := range l.Leaf.Providers {
			got, ok := cl.DataStores[id-1].GetPage(b.ID(), l.Leaf.Write, l.Leaf.ProviderRel(slot))
			if !ok || !bytes.Equal(got, want) {
				t.Errorf("page %d: the copy on provider %d does not read back the written bytes (present %v)", l.Page, id, ok)
			}
		}
	}
	rep, err = repair.New(c).RepairBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesMissing != 0 {
		t.Errorf("second pass: %+v, want PagesMissing 0", rep)
	}
}

// TestRunSweepsOnWake pins Repairer.Run's loop: a wake starts a sweep
// over every blob long before an hour-long interval would, and closing
// stop returns the loop.
func TestRunSweepsOnWake(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, pattern(3, 2*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	agent := repair.New(c)
	agent.Tracer = trace.New("repair-test", 0)
	stop := make(chan struct{})
	wake := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		agent.Run(stop, wake, time.Hour)
		close(done)
	}()

	wake <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for finished := false; !finished; {
		for _, ev := range agent.Tracer.Events() {
			switch ev.Type {
			case trace.RepairStart:
				if ev.Val != 1 {
					t.Fatalf("sweep over %d blobs, want the 1 written", ev.Val)
				}
			case trace.RepairFinish:
				finished = true
			}
		}
		if !finished && time.Now().After(deadline) {
			t.Fatal("no sweep finished after a wake")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after stop closed")
	}
}
