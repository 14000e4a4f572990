package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/meta"
	"blob/internal/monitor"
	"blob/internal/netsim"
	"blob/internal/rpc"
)

const pageSize = 4 << 10

// poisonByte overwrites every pooled rpc buffer on release while a test
// deployment runs (rpc.PoisonOnRelease).
const poisonByte = 0xEE

// launch is cluster.Launch with pooled rpc buffers poisoned on release
// until the test's cleanup ends: a reply or body read after its buffer
// went back to the pool reads poison and fails its checksum or decode
// loudly.
func launch(t testing.TB, cfg cluster.Config) (*cluster.Cluster, error) {
	t.Cleanup(rpc.PoisonOnRelease(poisonByte)) // registered first, so restored last
	return cluster.Launch(cfg)
}

func TestLaunchDefaultsAndShutdown(t *testing.T) {
	cl, err := launch(t, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.DataStores) != 4 || len(cl.MetaStores) != 4 {
		t.Errorf("defaults: %d data, %d meta providers", len(cl.DataStores), len(cl.MetaStores))
	}
	if len(cl.VMAddrs) == 0 || cl.PMAddr == "" {
		t.Error("manager addresses empty")
	}
	cl.Shutdown()
	// Shutdown must be idempotent.
	cl.Shutdown()
}

// TestDefaultClusterIsOneByOneGroup: the version plane has one mode. A
// config that asks for nothing gets the smallest replica group — one
// replica, leading from boot — and the monitor watches it
// like any other group. A lone replica restarts as a cold boot: it leads
// again at once, with its RAM-only state gone.
func TestDefaultClusterIsOneByOneGroup(t *testing.T) {
	cl, err := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, Monitor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	if len(cl.VMAddrs) != 1 {
		t.Fatalf("VMAddrs = %v, want one replica", cl.VMAddrs)
	}
	if l := cl.WaitVMLeader(-1, 0); l != 0 {
		t.Fatalf("leader at boot = %d, want 0 without waiting", l)
	}
	snap := waitHealth(t, cl, monitor.HealthGreen, nil, 5*time.Second)
	if snap.VM == nil || snap.VM.Leader != 0 || snap.VM.Replicas != 1 || snap.VM.Reachable != 1 {
		t.Fatalf("monitor version plane = %+v, want a group led by its one replica", snap.VM)
	}

	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.KillVMReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.RestartVMReplica(0); err != nil {
		t.Fatal(err)
	}
	if l := cl.WaitVMLeader(-1, 0); l != 0 {
		t.Fatalf("restarted lone replica does not lead (leader %d)", l)
	}
	if _, err := c.OpenBlob(ctx, b.ID()); err == nil {
		t.Error("blob survived the restart of a RAM-only single-replica group")
	}
}

func TestClientsOnDistinctHosts(t *testing.T) {
	cl, err := launch(t, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()
	c1, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	b, err := c1.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pageSize)
	if _, err := b2.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-host read mismatch")
	}
}

func TestCountersTrackStorage(t *testing.T) {
	cl, err := launch(t, cluster.Config{DataProviders: 3, MetaProviders: 3})
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
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if cl.TotalDataPages() != 0 || cl.TotalMetaBlocks() != 0 {
		t.Fatal("fresh cluster not empty")
	}
	if _, err := b.Write(ctx, make([]byte, 8*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	if got := cl.TotalDataPages(); got != 8 {
		t.Errorf("data pages = %d, want 8", got)
	}
	// Metadata is stored packed: exactly one dht value per block the
	// write's nodes fall into, as meta's geometry names them.
	blocks := map[meta.NodeRange]bool{}
	for _, r := range meta.WriteSet(64, meta.PageRange{First: 0, Count: 8}) {
		blocks[r.Block()] = true
	}
	if got := cl.TotalMetaBlocks(); got != len(blocks) {
		t.Errorf("stored metadata blocks = %d, want %d for the write's %d nodes",
			got, len(blocks), meta.CountWriteSet(64, meta.PageRange{First: 0, Count: 8}))
	}
}

func TestDeadWriterRepairOverRealStack(t *testing.T) {
	// End-to-end version of the repair scenario: a writer obtains a
	// version directly from the version manager and vanishes without
	// storing metadata. Later writers must still publish, and readers of
	// the repaired version must see the previous content (no-op patch).
	cl, err := launch(t, cluster.Config{
		DataProviders: 3, MetaProviders: 3,
		RepairTimeout: 100 * time.Millisecond,
	})
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

	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	base := bytes.Repeat([]byte{5}, 4*pageSize)
	if _, err := b.Write(ctx, base, 0); err != nil {
		t.Fatal(err)
	}

	// The doomed writer: assign version 2 over pages [1,3) and die.
	asg, err := c.VersionManager().AssignVersion(ctx, b.ID(), 666, pageSize, 2*pageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Version != 2 {
		t.Fatalf("doomed writer got v%d, want 2", asg.Version)
	}

	// A healthy write must eventually publish past the hole.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	patch := bytes.Repeat([]byte{9}, pageSize)
	v3, err := b.Write(wctx, patch, 3*pageSize)
	if err != nil {
		t.Fatalf("write behind dead writer: %v", err)
	}
	if v3 != 3 {
		t.Errorf("healthy write got v%d, want 3", v3)
	}

	// Version 2 (repaired) must read as version 1's content.
	got := make([]byte, 4*pageSize)
	if _, err := b.Read(ctx, got, 0, 2); err != nil {
		t.Fatalf("read repaired version: %v", err)
	}
	if !bytes.Equal(got, base) {
		t.Error("repaired version is not a no-op patch of v1")
	}
	// Version 3 composes over the repaired v2.
	want := append([]byte(nil), base...)
	copy(want[3*pageSize:], patch)
	if _, err := b.Read(ctx, got, 0, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("v3 composition over repaired v2 wrong")
	}

	// The dead writer's belated commit is rejected.
	if _, err := c.VersionManager().Commit(ctx, b.ID(), 2, false); err == nil || !rpc.IsServerError(err) {
		t.Errorf("belated commit = %v, want server error", err)
	}
}

func TestHeartbeatsKeepProvidersAllocatable(t *testing.T) {
	cl, err := launch(t, cluster.Config{
		DataProviders: 2, MetaProviders: 2,
		HeartbeatInterval: 20 * time.Millisecond,
	})
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

	// Wait past several heartbeat timeouts: allocation must keep
	// working because heartbeats keep arriving.
	time.Sleep(200 * time.Millisecond)
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if _, err := b.Write(ctx, make([]byte, pageSize), 0); err != nil {
		t.Fatalf("write after heartbeat interval: %v", err)
	}

	// Heartbeats carry load: the manager's membership view should see
	// nonzero bytes after a flush interval.
	time.Sleep(100 * time.Millisecond)
	_, infos := cl.PM.Members()
	if len(infos) != 2 {
		t.Fatalf("providers = %d", len(infos))
	}
}

func TestSeparateDataAndMetaHosts(t *testing.T) {
	cl, err := launch(t, cluster.Config{
		DataProviders: 2, MetaProviders: 3,
		Net: netsim.Fast(),
	})
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
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if _, err := b.Write(ctx, make([]byte, 2*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*pageSize)
	if _, err := b.Read(ctx, got, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementUsesEveryProvider(t *testing.T) {
	cl, err := launch(t, cluster.Config{
		DataProviders: 4, MetaProviders: 4,
	})
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
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	for i := 0; i < 4; i++ {
		if _, err := b.Write(ctx, make([]byte, 4*pageSize), uint64(i)*4*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin spreads the pages over every provider.
	for i, st := range cl.DataStores {
		if st.Snapshot().PageCount == 0 {
			t.Errorf("provider %d unused under round-robin", i)
		}
	}
}

func TestVersionManagerUnreachableAfterShutdown(t *testing.T) {
	cl, err := launch(t, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		cl.Shutdown()
		t.Fatal(err)
	}
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	cl.Shutdown()
	_, err = b.Write(ctx, make([]byte, pageSize), 0)
	if err == nil {
		t.Fatal("write succeeded against a shut-down cluster")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("unexpected timeout rather than refusal: %v", err)
	}
	c.Close()
}
