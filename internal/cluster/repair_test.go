package cluster_test

import (
	"context"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/erasure"
	"blob/internal/repair"
)

// TestRepairedPagesSurviveRestart: the slots the repair agent pushes
// back into a wiped disk-backed provider are ordinary durable pages —
// a crash-and-relaunch after the repair serves them all again.
func TestRepairedPagesSurviveRestart(t *testing.T) {
	cl, err := launch(t, cluster.Config{
		DataProviders: 2,
		MetaProviders: 2,
		Redundancy:    erasure.Redundancy{K: 1, M: 1},
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

	// Degrade provider 0 and repair it.
	if err := cl.WipeDataProvider(0); err != nil {
		t.Fatal(err)
	}
	rep, err := repair.New(c).RepairBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesReconstructed != 4 || !rep.FullyRedundant() {
		t.Fatalf("setup: repair = %+v, want 4 slots rebuilt", rep)
	}

	// The repaired pages themselves are durable.
	if err := cl.RestartDataProvider(0); err != nil {
		t.Fatal(err)
	}
	if n := cl.DataServices[0].Snapshot().PageCount; n != 4 {
		t.Fatalf("provider 0 holds %d pages after the restart, want the 4 repaired", n)
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
		Redundancy:        erasure.Redundancy{K: 1, M: 1},
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
