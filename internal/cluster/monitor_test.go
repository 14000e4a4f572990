package cluster_test

import (
	"context"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/erasure"
	"blob/internal/monitor"
	"blob/internal/trace"
)

// waitHealth polls the embedded monitor until the verdict matches (and
// check, when set, also passes) or the deadline expires.
func waitHealth(t *testing.T, cl *cluster.Cluster, want string, check func(monitor.ClusterSnapshot) bool, timeout time.Duration) monitor.ClusterSnapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last monitor.ClusterSnapshot
	for {
		last = cl.Mon.Snapshot()
		if last.Health == want && (check == nil || check(last)) {
			return last
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitor never reached %s (health %q, reasons %v)", want, last.Health, last.Reasons)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMonitorKillProviderDrill is the acceptance drill: a provider dies
// silently, the monitor turns yellow with the death visible in its
// event tail, death-triggered repair restores redundancy (debt back to
// zero), and once the node's heartbeats resume the verdict returns to
// green. The repair interval is an hour, so any repair seen here was
// driven by death detection, not the timer.
func TestMonitorKillProviderDrill(t *testing.T) {
	cl, err := launch(t, cluster.Config{
		DataProviders:     3,
		MetaProviders:     3,
		Redundancy:        erasure.Redundancy{K: 1, M: 1},
		DataDir:           t.TempDir(),
		HeartbeatInterval: 10 * time.Millisecond,
		RepairInterval:    time.Hour,
		Monitor:           true,
		MonitorInterval:   20 * time.Millisecond,
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

	green := waitHealth(t, cl, monitor.HealthGreen, nil, 5*time.Second)
	if green.DeadProviders != 0 || len(green.Providers) != 3 {
		t.Fatalf("baseline snapshot wrong: %+v", green)
	}

	// The node dies silently: heartbeats stop and its disk is lost. The
	// replacement keeps serving at the same address, so repair has
	// somewhere to push replicas back to.
	cl.StopProviderHeartbeat(0)
	if err := cl.WipeDataProvider(0); err != nil {
		t.Fatal(err)
	}

	yellow := waitHealth(t, cl, monitor.HealthYellow, func(s monitor.ClusterSnapshot) bool {
		return s.DeadProviders == 1
	}, 10*time.Second)
	if len(yellow.Reasons) == 0 {
		t.Fatalf("yellow verdict carries no reasons: %+v", yellow)
	}

	// Redundancy converges back without the node: death-triggered
	// repair restores every page, and the sweep's finish event drives
	// the monitor's debt back to zero.
	deadline := time.Now().Add(10 * time.Second)
	for cl.TotalDataPages() != fullPages {
		if time.Now().After(deadline) {
			t.Fatalf("repair did not restore redundancy (%d/%d pages)", cl.TotalDataPages(), fullPages)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The node comes back: heartbeats resume, the manager re-admits it,
	// and with debt zero and nobody dead the verdict returns to green.
	cl.ResumeProviderHeartbeat(0)
	waitHealth(t, cl, monitor.HealthGreen, func(s monitor.ClusterSnapshot) bool {
		return s.DeadProviders == 0 && s.RedundancyDebt == 0 && !s.RepairPending
	}, 10*time.Second)

	// The monitor's merged event tail must tell the story in order:
	// the death was detected, then a sweep started, then it finished.
	tail := cl.Mon.EventsSince(0, trace.SevInfo)
	var death, start, finish int64
	for _, e := range tail {
		switch e.Type {
		case trace.HeartbeatDeath:
			if death == 0 {
				death = e.Time
			}
		case trace.RepairStart:
			if start == 0 {
				start = e.Time
			}
		case trace.RepairFinish:
			if finish == 0 && e.Time >= start && start > 0 {
				finish = e.Time
			}
		}
	}
	if death == 0 || start == 0 || finish == 0 {
		t.Fatalf("event tail missing the drill's transitions (death %d, start %d, finish %d):\n%v",
			death, start, finish, tail)
	}
	if !(death <= start && start <= finish) {
		t.Fatalf("events out of order: death %d, repair-start %d, repair-finish %d", death, start, finish)
	}

	// The in-process merged journal view agrees.
	all := cl.Events()
	if len(all) == 0 {
		t.Fatal("cluster.Events returned nothing")
	}
}

// TestMonitorSnapshotRPC smoke-tests the federated plane end to end
// inside netsim: the embedded monitor's rollup reflects the deployment
// (providers, the vmanager leader) and the event journals feed its tail.
func TestMonitorSnapshotRPC(t *testing.T) {
	cl, err := launch(t, cluster.Config{
		DataProviders:     2,
		MetaProviders:     2,
		Redundancy:        erasure.Redundancy{K: 1, M: 1},
		HeartbeatInterval: 10 * time.Millisecond,
		VReplicas:         3,
		VMHeartbeat:       20 * time.Millisecond,
		Monitor:           true,
		MonitorInterval:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()

	snap := waitHealth(t, cl, monitor.HealthGreen, func(s monitor.ClusterSnapshot) bool {
		return len(s.Providers) == 2 && s.VM != nil && s.VM.Leader >= 0 && s.VM.Reachable == 3
	}, 10*time.Second)
	// The pm journal's registration events must have reached the
	// monitor's merged tail (a clean boot elects nobody — replica 0
	// starts out leading — so membership is the guaranteed traffic).
	refreshes := 0
	for _, e := range cl.Mon.EventsSince(0, trace.SevInfo) {
		if e.Type == trace.MembershipRefresh {
			refreshes++
		}
	}
	if refreshes < 2 {
		t.Fatalf("want ≥2 membership-refresh events in the monitor tail, got %d (snapshot %+v)", refreshes, snap)
	}
}
