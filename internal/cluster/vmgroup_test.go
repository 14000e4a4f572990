package cluster_test

// Fault-injection tests for the replicated version plane
// (docs/vmanager-group.md). The marquee scenario: kill the group's
// leader in the middle of a publish storm and prove that (a) every
// writer resumes under a new leader, and (b) no acked publish is ever
// lost.

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

// vmGroupConfig returns a cluster config for a version plane of the
// given replica count with election timings fast enough for test-scale
// failovers.
func vmGroupConfig(replicas int) cluster.Config {
	return cluster.Config{
		DataProviders: 3, MetaProviders: 3,
		VReplicas:         replicas,
		VMHeartbeat:       4 * time.Millisecond,
		VMElectionTimeout: 30 * time.Millisecond,
	}
}

// createBlobs creates n blobs of 16 pages each.
func createBlobs(t *testing.T, ctx context.Context, c *core.Client, n int) []*core.Blob {
	t.Helper()
	blobs := make([]*core.Blob, n)
	for i := range blobs {
		b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
		if err != nil {
			t.Fatalf("create blob %d: %v", i, err)
		}
		blobs[i] = b
	}
	return blobs
}

// TestVMGroupKillLeaderMidStorm runs a concurrent publish storm, one
// writer on each of three blobs, against a 3-replica version plane
// through the full client stack (data pages, metadata, version
// commits), kills the group's leader mid-storm, and asserts the
// fault-tolerance claims the design document makes: the group elects a
// new leader, every writer resumes, and every write the storm saw acked
// is still published afterwards.
func TestVMGroupKillLeaderMidStorm(t *testing.T) {
	cfg := vmGroupConfig(3)
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

	blobs := createBlobs(t, ctx, c, 3)

	// One writer per blob. Each records the versions its writes were
	// acked at; acked slices are read only after the writers exit.
	var (
		stop  = make(chan struct{})
		wg    sync.WaitGroup
		succ  [3]atomic.Uint64
		acked [3][]meta.Version
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w + 1)}, pageSize)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				wctx, cancel := context.WithTimeout(ctx, 3*time.Second)
				v, err := blobs[w].Write(wctx, payload, uint64(i%4)*pageSize)
				cancel()
				if err == nil {
					acked[w] = append(acked[w], v)
					succ[w].Add(1)
				}
			}
		}(w)
	}
	waitCount := func(w int, min uint64, d time.Duration) {
		t.Helper()
		deadline := time.Now().Add(d)
		for succ[w].Load() < min {
			if time.Now().After(deadline) {
				t.Fatalf("writer %d: stuck at %d acked writes, want >= %d", w, succ[w].Load(), min)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Warm up: every writer must be publishing before the fault.
	for w := 0; w < 3; w++ {
		waitCount(w, 5, 10*time.Second)
	}

	// Crash the leader mid-storm.
	leader := cl.VMLeader()
	if leader < 0 {
		t.Fatal("the group has no leader")
	}
	before0, before1, before2 := succ[0].Load(), succ[1].Load(), succ[2].Load()
	if err := cl.KillVMReplica(leader); err != nil {
		t.Fatal(err)
	}

	// The group hands off and every writer resumes.
	newLeader := cl.WaitVMLeader(leader, 10*time.Second)
	if newLeader < 0 {
		t.Fatal("the group elected no new leader")
	}
	if newLeader == leader {
		t.Fatalf("dead replica %d still leads", leader)
	}
	waitCount(0, before0+5, 10*time.Second)
	waitCount(1, before1+5, 10*time.Second)
	waitCount(2, before2+5, 10*time.Second)

	// The crashed replica rejoins and catches up from the new leader.
	if err := cl.RestartVMReplica(leader); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Zero acked-publish loss: for every blob, the latest published
	// version reaches the storm's high-water mark (repair may first have
	// to clear a crash-orphaned pending version), and every acked write
	// sits in the history, not aborted.
	for w := 0; w < 3; w++ {
		if len(acked[w]) == 0 {
			t.Fatalf("writer %d: no acked writes", w)
		}
		max := acked[w][0]
		for _, v := range acked[w] {
			if v > max {
				max = v
			}
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			v, _, err := blobs[w].Latest(ctx)
			if err == nil && v >= max {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("writer %d: latest %v (err %v) never reached acked v%d", w, v, err, max)
			}
			time.Sleep(5 * time.Millisecond)
		}
		hist, err := c.VersionManager().History(ctx, blobs[w].ID(), 0, ^uint64(0))
		if err != nil {
			t.Fatalf("writer %d history: %v", w, err)
		}
		byVersion := make(map[meta.Version]vmanager.WriteRecord, len(hist))
		for _, rec := range hist {
			byVersion[rec.Version] = rec
		}
		for _, v := range acked[w] {
			rec, ok := byVersion[v]
			if !ok {
				t.Errorf("writer %d: acked v%d missing from history", w, v)
			} else if rec.Aborted {
				t.Errorf("writer %d: acked v%d was aborted", w, v)
			}
		}
	}

	// The restarted replica converges with the group once the storm
	// quiesces: same term, same log length as the current leader.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lead := cl.VMLeader()
		rep := cl.VMReplica(leader)
		if lead >= 0 && rep != nil {
			ls, rs := cl.VMReplica(lead).Status(), rep.Status()
			if rs.Term == ls.Term && rs.LogLen == ls.LogLen && rs.Blobs == ls.Blobs {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted replica never converged with the group")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestVMGroupPartitionHealStress drives concurrent AssignVersion/Commit
// traffic on two blobs of a 3-replica group while the test repeatedly
// partitions the current leader, waits out the election, and heals the
// stale leader. Run under -race this exercises every replica-state
// transition concurrently with client traffic. After the last heal
// every blob must still accept writes and all replicas must converge to
// one term and log.
func TestVMGroupPartitionHealStress(t *testing.T) {
	cl, err := launch(t, vmGroupConfig(3))
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

	blobs := createBlobs(t, ctx, c, 2)

	var (
		stop sync.Once
		done = make(chan struct{})
		wg   sync.WaitGroup
		succ [2]atomic.Uint64
	)
	// Two writers per blob, all through the redirect-following group
	// client; errors during partitions are expected, successes must be
	// replicated mutations.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := w % 2
			id := blobs[b].ID()
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
						succ[b].Add(1)
					}
				}
				cancel()
			}
		}(w)
	}
	defer func() { stop.Do(func() { close(done) }); wg.Wait() }()

	for round := 0; round < 6; round++ {
		leader := cl.WaitVMLeader(-1, 10*time.Second)
		if leader < 0 {
			t.Fatalf("round %d: the group has no leader", round)
		}
		cl.PartitionVMReplica(leader)
		next := cl.WaitVMLeader(leader, 10*time.Second)
		if next < 0 {
			t.Fatalf("round %d: the group elected no successor to %d", round, leader)
		}
		cl.HealVMReplica(leader)
		time.Sleep(20 * time.Millisecond)
	}
	stop.Do(func() { close(done) })
	wg.Wait()

	for b := 0; b < 2; b++ {
		if succ[b].Load() == 0 {
			t.Errorf("blob %d: no write ever succeeded", b)
		}
		// The blob still takes writes after the final heal.
		a, err := vm.AssignVersion(ctx, blobs[b].ID(), 9999, 0, pageSize, false)
		if err != nil {
			t.Fatalf("blob %d post-heal assign: %v", b, err)
		}
		if _, err := vm.Commit(ctx, blobs[b].ID(), a.Version, false); err != nil {
			t.Fatalf("blob %d post-heal commit: %v", b, err)
		}
	}
	// All three replicas converge: healed stale leaders resync to the
	// incumbent's term and log.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := make([]vmanager.ReplicaStatus, 3)
		for j := 0; j < 3; j++ {
			st[j] = cl.VMReplica(j).Status()
		}
		if st[0].Term == st[1].Term && st[1].Term == st[2].Term &&
			st[0].LogLen == st[1].LogLen && st[1].LogLen == st[2].LogLen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestVMGroupElectionUnderLatency reruns leader handoff on a fabric with
// a materialized 1 ms one-way delay, so heartbeats, election timeouts
// and snapshot catch-up all ride visibly slower links (the
// netsim-delayed election variant).
func TestVMGroupElectionUnderLatency(t *testing.T) {
	cfg := cluster.Config{
		DataProviders: 3, MetaProviders: 3,
		Net:               netsim.Config{Latency: time.Millisecond},
		VReplicas:         3,
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

	leader := cl.VMLeader()
	if leader < 0 {
		t.Fatal("no leader")
	}
	if err := cl.KillVMReplica(leader); err != nil {
		t.Fatal(err)
	}
	if next := cl.WaitVMLeader(leader, 15*time.Second); next < 0 {
		t.Fatal("no new leader under latency")
	}
	if v, _, err := vm.Latest(ctx, blob); err != nil || v != last {
		t.Fatalf("latest after handoff = v%d, %v; want v%d", v, err, last)
	}
	publish(200)
	if err := cl.RestartVMReplica(leader); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		lead := cl.VMLeader()
		rep := cl.VMReplica(leader)
		if lead >= 0 && rep != nil {
			ls, rs := cl.VMReplica(lead).Status(), rep.Status()
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

// TestVMGroupRoutingAndStatus sanity-checks what clients and operators
// see of a 3-replica group: blob ids are handed out in sequence, every
// call reaches the leader, and FetchStatus exposes each replica's view
// (what blobctl vmstatus prints) — one leader, which every replica
// names, and every blob.
func TestVMGroupRoutingAndStatus(t *testing.T) {
	cl, err := launch(t, vmGroupConfig(3))
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

	if got := len(cl.VMAddrs); got != 3 {
		t.Fatalf("the group has %d replicas, want 3", got)
	}
	blobs := createBlobs(t, ctx, c, 3)
	for i, b := range blobs {
		if b.ID() != uint64(i+1) {
			t.Fatalf("blob %d has id %d, want %d", i, b.ID(), i+1)
		}
		if _, err := b.Write(ctx, bytes.Repeat([]byte{7}, pageSize), 0); err != nil {
			t.Fatalf("blob %d write: %v", i, err)
		}
	}
	leaders := 0
	for j := 0; j < 3; j++ {
		st, err := vm.FetchStatus(ctx, j)
		if err != nil {
			t.Fatalf("status r%d: %v", j, err)
		}
		if st.Index != j || st.Leader != cl.VMLeader() {
			t.Fatalf("status r%d reports r%d following r%d, want r%d following r%d", j, st.Index, st.Leader, j, cl.VMLeader())
		}
		if st.IsLeader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d replicas lead, want 1", leaders)
	}
	if _, err := vm.FetchStatus(ctx, 3); err == nil {
		t.Error("status of a replica outside the group answered")
	}
	all, err := vm.Blobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, len(all))
	for _, id := range all {
		seen[id] = true
	}
	for i, b := range blobs {
		if !seen[b.ID()] {
			t.Errorf("blob %d (id %d) missing from group Blobs()", i, b.ID())
		}
	}
}
