package cluster_test

import (
	"context"
	"testing"
	"time"

	"blob/internal/netsim"
)

// TestVMGroupFollowerLossOrphanRepair covers the quorum-loss wedge on a
// group whose leader never changes: with n=2 the follower's death
// blocks appends, a write that times out against the blocked group
// leaves an assigned-but-never-committed version, and once the
// follower rejoins the STANDING leader's repair scan — not a
// promotion-time RepairOrphans — must fill the orphan so publication
// advances again. Regression test for the operator drill in
// docs/vmanager-group.md §7.
func TestVMGroupFollowerLossOrphanRepair(t *testing.T) {
	cfg := vmGroupConfig(2)
	cfg.RepairTimeout = 100 * time.Millisecond
	cfg.Net = netsim.Fast()
	c, err := launch(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	ctx := context.Background()
	cl, err := c.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}

	data := make([]byte, b.PageSize())
	for i := range data {
		data[i] = 0x5a
	}
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("first write published v%d, want v1", v)
	}

	// Kill the follower: the strict n=2 quorum is gone, so the next
	// write's assign cannot be acked and must fail/expire cleanly.
	c.KillVMReplica(1)
	wctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	if _, err := b.Write(wctx, data, 0); err == nil {
		cancel()
		t.Fatal("write succeeded with the only follower dead; n=2 quorum should block it")
	}
	cancel()

	// Rejoin the follower. The standing leader (term unchanged, no
	// promotion) must repair the orphaned assign via its scan loop and
	// publication must advance for new writes.
	if err := c.RestartVMReplica(1); err != nil {
		t.Fatal(err)
	}
	wctx2, cancel2 := context.WithTimeout(ctx, 15*time.Second)
	defer cancel2()
	v2, err := b.Write(wctx2, data, 0)
	if err != nil {
		t.Fatalf("write after follower rejoin: %v", err)
	}
	if v2 <= v {
		t.Fatalf("post-rejoin write published v%d, want > v%d", v2, v)
	}

	// The wedged write's version must be resolved (aborted/repaired),
	// never half-pending: Latest reflects the newest real write.
	lead := c.VMLeader()
	latest, _, err := c.VMReplica(lead).Manager().Latest(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if latest < v2 {
		t.Fatalf("Latest %d < last acked write %d after repair", latest, v2)
	}
}
