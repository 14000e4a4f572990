package cluster_test

// Live-TCP variant of the vmanager-group fault tests: a 3-replica group
// on genuine loopback sockets (the deployment mode of cmd/blobnode),
// with a leader crash, handoff, and a Rejoin-restart at the original
// address. The netsim variants in vmgroup_test.go cover the storm and
// partition tests; this one proves the protocol holds on a real network
// stack.

import (
	"context"
	"net"
	"testing"
	"time"

	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/rpc"
	"blob/internal/vmanager"
)

func TestVMGroupRealTCP(t *testing.T) {
	const n = 3
	// Bind every replica address first: peers must be known before any
	// replica boots, exactly as -vpeers requires of the binaries.
	t.Cleanup(rpc.PoisonOnRelease(poisonByte))
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for j := 0; j < n; j++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		listeners[j] = l
		addrs[j] = l.Addr().String()
	}

	reps := make([]*vmanager.Replica, n)
	srvs := make([]*rpc.Server, n)
	start := func(j int, rejoin bool, l net.Listener) {
		pool := rpc.NewPool(rpc.TCP{})
		t.Cleanup(pool.Close)
		rep, err := vmanager.NewReplica(vmanager.ReplicaConfig{
			Index:           j,
			Peers:           addrs,
			Pool:            pool,
			Heartbeat:       5 * time.Millisecond,
			ElectionTimeout: 40 * time.Millisecond,
			Rejoin:          rejoin,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		rep.RegisterHandlers(srv)
		srv.Start(l)
		reps[j], srvs[j] = rep, srv
	}
	for j := 0; j < n; j++ {
		start(j, false, listeners[j])
	}
	defer func() {
		for j := 0; j < n; j++ {
			if srvs[j] != nil {
				srvs[j].Close()
			}
			if reps[j] != nil {
				reps[j].Close()
			}
		}
	}()

	leaderIdx := func() int {
		best, bestTerm := -1, uint64(0)
		for j, rep := range reps {
			if rep == nil {
				continue
			}
			if st := rep.Status(); st.IsLeader && (best < 0 || st.Term > bestTerm) {
				best, bestTerm = j, st.Term
			}
		}
		return best
	}
	waitLeader := func(not int, timeout time.Duration) int {
		deadline := time.Now().Add(timeout)
		for {
			if l := leaderIdx(); l >= 0 && l != not {
				return l
			}
			if time.Now().After(deadline) {
				return -1
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	ctx := context.Background()
	cpool := rpc.NewPool(rpc.TCP{})
	defer cpool.Close()
	g := vmanager.NewGroupClient(cpool, addrs)

	blob, err := g.CreateBlob(ctx, pageSize, 16*pageSize, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}
	var last meta.Version
	publish := func(writeID uint64) {
		t.Helper()
		a, err := g.AssignVersion(ctx, blob, writeID, 0, pageSize, false)
		if err != nil {
			t.Fatalf("assign %d: %v", writeID, err)
		}
		if _, err := g.Commit(ctx, blob, a.Version, true); err != nil {
			t.Fatalf("commit %d: %v", writeID, err)
		}
		last = a.Version
	}
	for i := 0; i < 5; i++ {
		publish(uint64(10 + i))
	}

	// Crash the leader: server first (sockets die), then the replica.
	lead := waitLeader(-1, 5*time.Second)
	if lead < 0 {
		t.Fatal("no leader over TCP")
	}
	srvs[lead].Close()
	reps[lead].Close()
	reps[lead], srvs[lead] = nil, nil

	next := waitLeader(lead, 10*time.Second)
	if next < 0 {
		t.Fatal("no handoff after TCP leader crash")
	}
	if v, _, err := g.Latest(ctx, blob); err != nil || v != last {
		t.Fatalf("latest after handoff = v%d, %v; want v%d", v, err, last)
	}
	publish(100)

	// Restart the crashed replica at its original address (retry the
	// bind briefly: the old listener's close may still be settling).
	var nl net.Listener
	for i := 0; i < 100; i++ {
		if nl, err = net.Listen("tcp", addrs[lead]); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addrs[lead], err)
	}
	start(lead, true, nl)

	// The rejoined replica catches up with the incumbent's term and log.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := leaderIdx()
		if cur >= 0 && cur != lead {
			ls, rs := reps[cur].Status(), reps[lead].Status()
			if rs.Term == ls.Term && rs.LogLen == ls.LogLen && rs.Blobs == ls.Blobs {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("rejoined replica never caught up over TCP")
		}
		time.Sleep(5 * time.Millisecond)
	}
	publish(200)
	if v, _, err := g.Latest(ctx, blob); err != nil || v != last {
		t.Fatalf("final latest = v%d, %v; want v%d", v, err, last)
	}
}
