package cluster_test

// Fault-injection tests for the sharded, replicated version plane
// (docs/vmanager-group.md). The marquee scenario: kill one shard's
// leader in the middle of a publish storm and prove that (a) the other
// shards never stall, (b) the killed shard resumes under a new leader,
// and (c) no acked publish is ever lost.

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/netsim"
	"blob/internal/vmanager"
)

// vmGroupConfig returns a cluster config for a VShards x VReplicas
// version plane with election timings fast enough for test-scale
// failovers.
func vmGroupConfig(shards, replicas int) cluster.Config {
	return cluster.Config{
		DataProviders: 3, MetaProviders: 3,
		VShards: shards, VReplicas: replicas,
		VMHeartbeat:       4 * time.Millisecond,
		VMElectionTimeout: 30 * time.Millisecond,
	}
}

// blobPerShard creates blobs until every vmanager shard owns at least
// one, returning one open blob per shard (indexed by shard).
func blobPerShard(t *testing.T, ctx context.Context, c *core.Client, shards int) []*core.Blob {
	t.Helper()
	blobs := make([]*core.Blob, shards)
	covered := 0
	for i := 0; i < 16*shards && covered < shards; i++ {
		b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
		if err != nil {
			t.Fatalf("create blob %d: %v", i, err)
		}
		if s := vmanager.ShardOf(shards, b.ID()); blobs[s] == nil {
			blobs[s] = b
			covered++
		}
	}
	if covered < shards {
		t.Fatalf("only %d of %d shards own a blob", covered, shards)
	}
	return blobs
}

// TestVMGroupKillLeaderMidStorm runs a concurrent publish storm across a
// 3-shard x 3-replica version plane through the full client stack (data
// pages, metadata, version commits), kills shard 0's leader mid-storm,
// and asserts the three fault-tolerance claims the design document
// makes: unaffected shards keep publishing throughout the outage, the
// killed shard elects a new leader and resumes, and every write the
// storm saw acked is still published afterwards.
func TestVMGroupKillLeaderMidStorm(t *testing.T) {
	cfg := vmGroupConfig(3, 3)
	// Repair must be armed: a writer whose commit response is lost in
	// the crash leaves a pending version that would otherwise block the
	// publish chain forever.
	cfg.RepairTimeout = 150 * time.Millisecond
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

	blobs := blobPerShard(t, ctx, c, 3)

	// One writer per shard. Each records the versions its writes were
	// acked at; acked slices are read only after the writers exit.
	var (
		stop  = make(chan struct{})
		wg    sync.WaitGroup
		succ  [3]atomic.Uint64
		acked [3][]meta.Version
	)
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(s + 1)}, pageSize)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				wctx, cancel := context.WithTimeout(ctx, 3*time.Second)
				v, err := blobs[s].Write(wctx, payload, uint64(i%4)*pageSize)
				cancel()
				if err == nil {
					acked[s] = append(acked[s], v)
					succ[s].Add(1)
				}
			}
		}(s)
	}
	waitCount := func(s int, min uint64, d time.Duration) {
		t.Helper()
		deadline := time.Now().Add(d)
		for succ[s].Load() < min {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: stuck at %d acked writes, want >= %d", s, succ[s].Load(), min)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Warm up: every shard must be publishing before the fault.
	for s := 0; s < 3; s++ {
		waitCount(s, 5, 10*time.Second)
	}

	// Crash shard 0's leader mid-storm.
	leader := cl.VMShardLeader(0)
	if leader < 0 {
		t.Fatal("shard 0 has no leader")
	}
	before0, before1, before2 := succ[0].Load(), succ[1].Load(), succ[2].Load()
	if err := cl.KillVMReplica(0, leader); err != nil {
		t.Fatal(err)
	}

	// The unaffected shards never stall: they make progress during the
	// outage window, before shard 0 has recovered.
	waitCount(1, before1+5, 10*time.Second)
	waitCount(2, before2+5, 10*time.Second)

	// The killed shard hands off and resumes.
	newLeader := cl.WaitVMLeader(0, leader, 10*time.Second)
	if newLeader < 0 {
		t.Fatal("shard 0 elected no new leader")
	}
	if newLeader == leader {
		t.Fatalf("dead replica %d still leads shard 0", leader)
	}
	waitCount(0, before0+5, 10*time.Second)

	// The crashed replica rejoins and catches up from the new leader.
	if err := cl.RestartVMReplica(0, leader); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Zero acked-publish loss: for every shard, the latest published
	// version reaches the storm's high-water mark (repair may first have
	// to clear a crash-orphaned pending version), and every acked write
	// sits in the history, not aborted.
	for s := 0; s < 3; s++ {
		if len(acked[s]) == 0 {
			t.Fatalf("shard %d: no acked writes", s)
		}
		max := acked[s][0]
		for _, v := range acked[s] {
			if v > max {
				max = v
			}
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			v, _, err := blobs[s].Latest(ctx)
			if err == nil && v >= max {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: latest %v (err %v) never reached acked v%d", s, v, err, max)
			}
			time.Sleep(5 * time.Millisecond)
		}
		hist, err := c.VersionManager().History(ctx, blobs[s].ID(), 0, ^uint64(0))
		if err != nil {
			t.Fatalf("shard %d history: %v", s, err)
		}
		byVersion := make(map[meta.Version]vmanager.WriteRecord, len(hist))
		for _, rec := range hist {
			byVersion[rec.Version] = rec
		}
		for _, v := range acked[s] {
			rec, ok := byVersion[v]
			if !ok {
				t.Errorf("shard %d: acked v%d missing from history", s, v)
			} else if rec.Aborted {
				t.Errorf("shard %d: acked v%d was aborted", s, v)
			}
		}
	}

	// The restarted replica converges with its shard once the storm
	// quiesces: same term, same log length as the current leader.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lead := cl.VMShardLeader(0)
		rep := cl.VMReplica(0, leader)
		if lead >= 0 && rep != nil {
			ls, rs := cl.VMReplica(0, lead).Status(), rep.Status()
			if rs.Term == ls.Term && rs.LogLen == ls.LogLen && rs.Blobs == ls.Blobs {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted replica never converged with shard 0")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestVMGroupPartitionHealStress drives concurrent AssignVersion/Commit
// traffic against both shards of a 2x3 group while the test repeatedly
// partitions the current leader of alternating shards, waits out the
// election, and heals the stale leader. Run under -race this exercises
// every replica-state transition concurrently with client traffic. After
// the last heal every shard must still accept writes and all replicas of
// a shard must converge to one term and log.
func TestVMGroupPartitionHealStress(t *testing.T) {
	cl, err := launch(t, vmGroupConfig(2, 3))
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
	vm := c.VersionManager()

	blobs := blobPerShard(t, ctx, c, 2)

	var (
		stop sync.Once
		done = make(chan struct{})
		wg   sync.WaitGroup
		succ [2]atomic.Uint64
	)
	// Two writers per shard, all through the redirect-following group
	// client; errors during partitions are expected, successes must be
	// replicated mutations.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := w % 2
			id := blobs[s].ID()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				octx, cancel := context.WithTimeout(ctx, time.Second)
				a, err := vm.AssignVersion(octx, id, uint64(1000*w+i), 0, pageSize, false)
				if err == nil {
					if _, err = vm.Commit(octx, id, a.Version, false); err == nil {
						succ[s].Add(1)
					}
				}
				cancel()
			}
		}(w)
	}
	defer func() { stop.Do(func() { close(done) }); wg.Wait() }()

	for round := 0; round < 6; round++ {
		s := round % 2
		leader := cl.WaitVMLeader(s, -1, 10*time.Second)
		if leader < 0 {
			t.Fatalf("round %d: shard %d has no leader", round, s)
		}
		cl.PartitionVMReplica(s, leader)
		next := cl.WaitVMLeader(s, leader, 10*time.Second)
		if next < 0 {
			t.Fatalf("round %d: shard %d elected no successor to %d", round, s, leader)
		}
		cl.HealVMReplica(s, leader)
		time.Sleep(20 * time.Millisecond)
	}
	stop.Do(func() { close(done) })
	wg.Wait()

	for s := 0; s < 2; s++ {
		if succ[s].Load() == 0 {
			t.Errorf("shard %d: no write ever succeeded", s)
		}
		// The shard still takes writes after the final heal.
		a, err := vm.AssignVersion(ctx, blobs[s].ID(), 9999, 0, pageSize, false)
		if err != nil {
			t.Fatalf("shard %d post-heal assign: %v", s, err)
		}
		if _, err := vm.Commit(ctx, blobs[s].ID(), a.Version, false); err != nil {
			t.Fatalf("shard %d post-heal commit: %v", s, err)
		}
		// All three replicas converge: healed stale leaders resync to
		// the incumbent's term and log.
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := make([]vmanager.ReplicaStatus, 3)
			for j := 0; j < 3; j++ {
				st[j] = cl.VMReplica(s, j).Status()
			}
			if st[0].Term == st[1].Term && st[1].Term == st[2].Term &&
				st[0].LogLen == st[1].LogLen && st[1].LogLen == st[2].LogLen {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d replicas never converged: %+v", s, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestVMGroupElectionUnderLatency reruns leader handoff on a fabric with
// a materialized 1 ms one-way delay, so heartbeats, election timeouts
// and snapshot catch-up all ride visibly slower links (the
// netsim-delayed election variant).
func TestVMGroupElectionUnderLatency(t *testing.T) {
	cfg := cluster.Config{
		DataProviders: 3, MetaProviders: 3,
		Net:     netsim.Config{Latency: time.Millisecond},
		VShards: 1, VReplicas: 3,
		VMHeartbeat:       10 * time.Millisecond,
		VMElectionTimeout: 80 * time.Millisecond,
	}
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
	vm := c.VersionManager()

	blob, err := vm.CreateBlob(ctx, pageSize, 16*pageSize, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}
	var last meta.Version
	publish := func(writeID uint64) {
		t.Helper()
		a, err := vm.AssignVersion(ctx, blob, writeID, 0, pageSize, false)
		if err != nil {
			t.Fatalf("assign %d: %v", writeID, err)
		}
		if _, err := vm.Commit(ctx, blob, a.Version, true); err != nil {
			t.Fatalf("commit %d: %v", writeID, err)
		}
		last = a.Version
	}
	for i := 0; i < 5; i++ {
		publish(uint64(100 + i))
	}

	leader := cl.VMShardLeader(0)
	if leader < 0 {
		t.Fatal("no leader")
	}
	if err := cl.KillVMReplica(0, leader); err != nil {
		t.Fatal(err)
	}
	if next := cl.WaitVMLeader(0, leader, 15*time.Second); next < 0 {
		t.Fatal("no new leader under latency")
	}
	if v, _, err := vm.Latest(ctx, blob); err != nil || v != last {
		t.Fatalf("latest after handoff = v%d, %v; want v%d", v, err, last)
	}
	publish(200)
	if err := cl.RestartVMReplica(0, leader); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		lead := cl.VMShardLeader(0)
		rep := cl.VMReplica(0, leader)
		if lead >= 0 && rep != nil {
			ls, rs := cl.VMReplica(0, lead).Status(), rep.Status()
			if rs.Term == ls.Term && rs.LogLen == ls.LogLen {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted replica never caught up over the slow fabric")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestVMGroupRoutingAndStatus sanity-checks the per-blob shard routing
// the clients use: blobs created round-robin land on distinct shards,
// redirects reach the right leader, and FetchStatus exposes each
// replica's view (what blobctl vmstatus prints).
func TestVMGroupRoutingAndStatus(t *testing.T) {
	cl, err := launch(t, vmGroupConfig(3, 2))
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
	vm := c.VersionManager()

	if got := len(vm.Shards()); got != 3 {
		t.Fatalf("client sees %d shards, want 3", got)
	}
	blobs := blobPerShard(t, ctx, c, 3)
	for s, b := range blobs {
		if _, err := b.Write(ctx, bytes.Repeat([]byte{7}, pageSize), 0); err != nil {
			t.Fatalf("shard %d write: %v", s, err)
		}
		// Only the owning shard knows the blob.
		for s2 := 0; s2 < 3; s2++ {
			for j := 0; j < 2; j++ {
				st, err := vm.FetchStatus(ctx, s2, j)
				if err != nil {
					t.Fatalf("status s%dr%d: %v", s2, j, err)
				}
				if st.Shard != s2 || st.Index != j {
					t.Fatalf("status s%dr%d reports s%dr%d", s2, j, st.Shard, st.Index)
				}
			}
		}
	}
	// Each shard's Blobs union equals the full blob set.
	all, err := vm.Blobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, len(all))
	for _, id := range all {
		seen[id] = true
	}
	for s, b := range blobs {
		if !seen[b.ID()] {
			t.Errorf("shard %d blob %d missing from group Blobs()", s, b.ID())
		}
	}
}
