package cluster_test

import (
	"context"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/repair"
)

// TestRestartZeroesRepairCounters pins the stats-honesty fix: repair
// counters belong to the running provider service, so a provider
// restarted after doing repair work reports zero — post-restart stats
// must never claim the dead incarnation's pulls.
func TestRestartZeroesRepairCounters(t *testing.T) {
	cl, err := launch(t, cluster.Config{
		DataProviders: 2,
		MetaProviders: 2,
		DataReplicas:  2,
		DataDir:       t.TempDir(),
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
	b, err := c.CreateBlob(ctx, 4<<10, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, make([]byte, 4*(4<<10)), 0); err != nil {
		t.Fatal(err)
	}

	// Degrade provider 0, repair it, and observe its counters move.
	if err := cl.WipeDataProvider(0); err != nil {
		t.Fatal(err)
	}
	rep, err := repair.New(c).RepairBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesRepaired == 0 {
		t.Fatalf("setup: nothing repaired: %+v", rep)
	}
	if got := cl.DataServices[0].Snapshot(); got.RepairedPages == 0 || got.RepairBytes == 0 {
		t.Fatalf("setup: provider 0 reports no repair work: %+v", got)
	}

	// A crash-and-relaunch must start the counters over.
	if err := cl.RestartDataProvider(0); err != nil {
		t.Fatal(err)
	}
	st := cl.DataServices[0].Snapshot()
	if st.RepairedPages != 0 || st.RepairBytes != 0 || st.PullSkips != 0 {
		t.Fatalf("post-restart repair counters = %d/%d/%d, want zero",
			st.RepairedPages, st.RepairBytes, st.PullSkips)
	}
	// The repaired pages themselves are durable — only the counters reset.
	if st.PageCount == 0 {
		t.Fatal("repaired pages lost across restart")
	}
}

// TestHeartbeatDeathTriggersRepair pins the ROADMAP follow-up: the
// repair pass fires from provider-manager death detection, not from
// the RepairInterval timer. With the interval set to an hour, only the
// DeathWatch trigger can explain redundancy returning within seconds.
func TestHeartbeatDeathTriggersRepair(t *testing.T) {
	cl, err := launch(t, cluster.Config{
		DataProviders:     3,
		MetaProviders:     3,
		DataReplicas:      2,
		DataDir:           t.TempDir(),
		HeartbeatInterval: 10 * time.Millisecond,
		RepairInterval:    time.Hour, // the timer alone would never fire in-test
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
	b, err := c.CreateBlob(ctx, 4<<10, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, make([]byte, 8*(4<<10)), 0); err != nil {
		t.Fatal(err)
	}
	fullPages := cl.TotalDataPages()

	// The node "dies silently": heartbeats stop, and its disk is lost.
	// (The replacement keeps serving RPCs at the same address so the
	// repair pass has somewhere to push replicas back to.)
	cl.StopProviderHeartbeat(0)
	if err := cl.WipeDataProvider(0); err != nil {
		t.Fatal(err)
	}
	if cl.TotalDataPages() == fullPages {
		t.Fatal("setup: wipe removed nothing")
	}

	deadline := time.Now().Add(10 * time.Second)
	for cl.TotalDataPages() != fullPages {
		if time.Now().After(deadline) {
			t.Fatalf("death-triggered repair did not restore redundancy (%d/%d pages)",
				cl.TotalDataPages(), fullPages)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
