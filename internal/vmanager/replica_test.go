package vmanager

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/netsim"
	"blob/internal/rpc"
)

// testGroup is an in-package harness for one replica group: n
// replicas on their own simulated hosts, plus kill/restart primitives.
// The cross-layer variant (live clients, a full cluster) lives in
// internal/cluster.
type testGroup struct {
	t     *testing.T
	fab   *netsim.Net
	peers []string
	cfg   func(j int) ReplicaConfig

	mu   sync.Mutex
	reps []*Replica
	srvs []*rpc.Server
}

// newTestGroup boots an n-replica group with simulation-fast timings.
// mut, if non-nil, adjusts each replica's config before boot.
func newTestGroup(t *testing.T, n int, mut func(j int, cfg *ReplicaConfig)) *testGroup {
	t.Helper()
	fab := netsim.New(netsim.Fast())
	ts := &testGroup{
		t:    t,
		fab:  fab,
		reps: make([]*Replica, n),
		srvs: make([]*rpc.Server, n),
	}
	for j := 0; j < n; j++ {
		ts.peers = append(ts.peers, fmt.Sprintf("r%d:rpc", j))
	}
	ts.cfg = func(j int) ReplicaConfig {
		cfg := ReplicaConfig{
			Index:           j,
			Peers:           ts.peers,
			Pool:            rpc.NewPool(hostDialer{fab.Host(fmt.Sprintf("r%d", j))}),
			Heartbeat:       4 * time.Millisecond,
			ElectionTimeout: 30 * time.Millisecond,
			Logf:            t.Logf,
		}
		if mut != nil {
			mut(j, &cfg)
		}
		return cfg
	}
	for j := 0; j < n; j++ {
		ts.start(j, false)
	}
	t.Cleanup(ts.close)
	return ts
}

func (ts *testGroup) start(j int, rejoin bool) {
	ts.t.Helper()
	cfg := ts.cfg(j)
	cfg.Rejoin = rejoin
	rep, err := NewReplica(cfg)
	if err != nil {
		ts.t.Fatal(err)
	}
	srv := rpc.NewServer()
	rep.RegisterHandlers(srv)
	l, err := ts.fab.Host(fmt.Sprintf("r%d", j)).Listen("rpc")
	if err != nil {
		rep.Close()
		ts.t.Fatal(err)
	}
	srv.Start(l)
	ts.mu.Lock()
	ts.reps[j], ts.srvs[j] = rep, srv
	ts.mu.Unlock()
}

func (ts *testGroup) rep(j int) *Replica {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.reps[j]
}

// kill crash-stops replica j: server closed, process stopped, state lost.
func (ts *testGroup) kill(j int) {
	ts.mu.Lock()
	rep, srv := ts.reps[j], ts.srvs[j]
	ts.reps[j], ts.srvs[j] = nil, nil
	ts.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if rep != nil {
		rep.Close()
	}
}

// partition cuts replica j's host off from every other host, both
// directions, without stopping the replica: its connections reset and
// new dials are refused. heal reconnects it.
func (ts *testGroup) partition(j int) {
	ts.fab.SetHostFault(fmt.Sprintf("r%d", j), netsim.Fault{DropProb: 1, RefuseDial: true})
}

func (ts *testGroup) heal(j int) { ts.fab.ClearHostFault(fmt.Sprintf("r%d", j)) }

// restart relaunches a killed replica at the same address, empty, as a
// rejoining follower.
func (ts *testGroup) restart(j int) { ts.start(j, true) }

func (ts *testGroup) close() {
	ts.mu.Lock()
	reps, srvs := ts.reps, ts.srvs
	ts.reps, ts.srvs = make([]*Replica, len(reps)), make([]*rpc.Server, len(srvs))
	ts.mu.Unlock()
	for _, s := range srvs {
		if s != nil {
			s.Close()
		}
	}
	for _, r := range reps {
		if r != nil {
			r.Close()
		}
	}
	ts.fab.Close()
}

// leaderIdx polls live replicas for the current leadership claimant.
// A partitioned stale leader may still claim its old term, so the
// highest-term claimant wins.
func (ts *testGroup) leaderIdx() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	best, bestTerm := -1, uint64(0)
	for j, r := range ts.reps {
		if r == nil {
			continue
		}
		if st := r.Status(); st.IsLeader && (best < 0 || st.Term > bestTerm) {
			best, bestTerm = j, st.Term
		}
	}
	return best
}

// waitLeader blocks until some live replica other than `not` claims
// leadership.
func (ts *testGroup) waitLeader(not int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		if l := ts.leaderIdx(); l >= 0 && l != not {
			return l
		}
		if time.Now().After(deadline) {
			ts.t.Fatalf("no leader (excluding %d) within %v", not, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// client builds a GroupClient dialing from its own host.
func (ts *testGroup) client() *GroupClient {
	pool := rpc.NewPool(hostDialer{ts.fab.Host("cli")})
	ts.t.Cleanup(pool.Close)
	return NewGroupClient(pool, ts.peers)
}

type hostDialer struct{ h *netsim.Host }

func (d hostDialer) Dial(addr string) (net.Conn, error) { return d.h.Dial(addr) }

// TestLoneReplicaOverRPC drives every client-facing method through the
// smallest deployment there is — a group of one replica, what a bare
// `blobnode -roles vmanager` boots — over the RPC codecs.
func TestLoneReplicaOverRPC(t *testing.T) {
	ts := newTestGroup(t, 1, nil)
	c := ts.client()
	ctx := context.Background()

	blob, err := c.CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Info(ctx, blob)
	if err != nil || info.TotalPages != 64 || info.PageSize != pageSize {
		t.Fatalf("info = %+v, %v", info, err)
	}

	a, err := c.AssignVersion(ctx, blob, 5, 0, 2*pageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != 1 || len(a.Borders) == 0 {
		t.Fatalf("assignment = %+v", a)
	}
	pub, err := c.Commit(ctx, blob, a.Version, true)
	if err != nil || pub != 1 {
		t.Fatalf("commit = %d, %v", pub, err)
	}
	v, size, err := c.Latest(ctx, blob)
	if err != nil || v != 1 || size != 2*pageSize {
		t.Fatalf("latest = %d %d %v", v, size, err)
	}
	published, _, err := c.VersionInfo(ctx, blob, 1)
	if err != nil || !published {
		t.Fatalf("versioninfo = %v %v", published, err)
	}
	recs, err := c.History(ctx, blob, 0, 10)
	if err != nil || len(recs) != 1 || recs[0].WriteID != 5 {
		t.Fatalf("history = %+v, %v", recs, err)
	}
	if err := c.Abort(ctx, blob, 99); err == nil {
		t.Error("abort of unknown version should fail")
	}
	ids, err := c.Blobs(ctx)
	if err != nil || len(ids) != 1 || ids[0] != blob {
		t.Fatalf("blobs = %v, %v", ids, err)
	}
}

// TestLoneReplicaRejectsRejoin: a single-replica group has no incumbent
// for a rejoining replica to follow and runs no election loop to promote
// it, so Rejoin there used to boot a replica that answered NotLeader
// forever. It is a config error; the restart that works is a cold boot.
func TestLoneReplicaRejectsRejoin(t *testing.T) {
	ts := newTestGroup(t, 1, nil)
	ts.kill(0)
	cfg := ts.cfg(0)
	cfg.Rejoin = true
	if rep, err := NewReplica(cfg); !errors.Is(err, ErrLoneRejoin) {
		if rep != nil {
			rep.Close()
		}
		t.Fatalf("NewReplica(Rejoin, 1 peer) = %v, want ErrLoneRejoin", err)
	}
	ts.start(0, false)
	if st := ts.rep(0).Status(); !st.IsLeader {
		t.Fatalf("cold-restarted lone replica does not lead: %+v", st)
	}
}

func TestReplicatedBasicOps(t *testing.T) {
	ts := newTestGroup(t, 3, nil)
	g := ts.client()
	ctx := context.Background()

	blob, err := g.CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.AssignVersion(ctx, blob, 7, 0, 2*pageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if pub, err := g.Commit(ctx, blob, a.Version, true); err != nil || pub != a.Version {
		t.Fatalf("commit = %d, %v", pub, err)
	}
	v, size, err := g.Latest(ctx, blob)
	if err != nil || v != a.Version || size != 2*pageSize {
		t.Fatalf("latest = %d %d %v", v, size, err)
	}
	recs, err := g.History(ctx, blob, 0, 10)
	if err != nil || len(recs) != 1 || recs[0].WriteID != 7 {
		t.Fatalf("history = %+v, %v", recs, err)
	}

	// Every mutation was quorum-acked; with an idle group the followers
	// converge to the full log (create + assign + commit = 3 records).
	deadline := time.Now().Add(2 * time.Second)
	for j := 0; j < 3; j++ {
		for {
			st := ts.rep(j).Status()
			if st.LogLen == 3 && st.Blobs == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d stuck at %+v", j, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestFollowerRedirects(t *testing.T) {
	ts := newTestGroup(t, 3, nil)
	ctx := context.Background()

	// Direct call to a follower must produce a parseable redirect.
	_, err := ts.rep(1).CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{})
	if err == nil {
		t.Fatal("follower accepted a mutation")
	}
	leader, ok := ParseNotLeader(err)
	if !ok || leader != 0 {
		t.Fatalf("redirect = %v (leader %d, ok %v), want leader 0", err, leader, ok)
	}
}

func TestLeaderHandoffPreservesAckedWrites(t *testing.T) {
	ts := newTestGroup(t, 3, nil)
	g := ts.client()
	ctx := context.Background()

	blob, err := g.CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}
	var acked []meta.Version
	for i := 0; i < 5; i++ {
		a, err := g.AssignVersion(ctx, blob, uint64(100+i), 0, pageSize, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Commit(ctx, blob, a.Version, true); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, a.Version)
	}

	// Kill the leader. Deterministic handoff: replica 1 is next in
	// index order.
	ts.kill(0)
	if l := ts.waitLeader(0, 5*time.Second); l != 1 {
		t.Errorf("handoff went to replica %d, want 1", l)
	}

	// Every acked commit must survive into the new leader.
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	v, _, err := g.Latest(cctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	if want := acked[len(acked)-1]; v != want {
		t.Fatalf("latest after handoff = %d, want %d", v, want)
	}

	// The group keeps taking writes (quorum = 2 of 3 still live).
	a, err := g.AssignVersion(cctx, blob, 999, 0, pageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Commit(cctx, blob, a.Version, true); err != nil {
		t.Fatal(err)
	}

	// The old leader rejoins as a follower and catches up.
	ts.restart(0)
	deadline := time.Now().Add(5 * time.Second)
	lead := ts.rep(1).Status()
	for {
		st := ts.rep(0).Status()
		if !st.IsLeader && st.Term >= lead.Term && st.LogLen >= lead.LogLen && st.Blobs == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica stuck at %+v (leader %+v)", st, lead)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRestartedReplicaZeroDoesNotServeEmptyState(t *testing.T) {
	// A killed replica 0 restarted *before* anyone campaigns must not
	// reclaim its term-0 leadership with empty state: rejoining replicas
	// boot follower and redirect clients until the group has a leader.
	ts := newTestGroup(t, 2, func(_ int, cfg *ReplicaConfig) {
		// Slow elections: the restart happens well before any campaign.
		cfg.ElectionTimeout = 300 * time.Millisecond
	})
	g := ts.client()
	ctx := context.Background()

	blob, err := g.CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.AssignVersion(ctx, blob, 1, 0, pageSize, false)
	if _, err := g.Commit(ctx, blob, a.Version, true); err != nil {
		t.Fatal(err)
	}

	ts.kill(0)
	ts.restart(0)

	// The rejoined replica must answer with a redirect, not empty data.
	if _, err := ts.rep(0).AssignVersion(ctx, blob, 2, 0, pageSize, false); err == nil {
		t.Fatal("rejoined replica 0 accepted a mutation before any election")
	} else if _, ok := ParseNotLeader(err); !ok && !IsUnavailable(err) {
		t.Fatalf("rejoined replica error = %v, want redirect or unavailable", err)
	}

	// Eventually the group elects a leader holding the acked state.
	ts.waitLeader(-1, 5*time.Second)
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	v, _, err := g.Latest(cctx, blob)
	if err != nil || v != a.Version {
		t.Fatalf("latest after rejoin = %d, %v, want %d", v, err, a.Version)
	}
}

// TestPartitionedFollowerDoesNotPromote: the campaign quorum is a
// majority, so a 2-replica group's follower, cut off from its leader,
// reaches no quorum and stays a follower however many election
// timeouts pass. On heal no term has moved and r0 still leads.
func TestPartitionedFollowerDoesNotPromote(t *testing.T) {
	ts := newTestGroup(t, 2, nil)
	timeout := ts.cfg(1).ElectionTimeout

	ts.partition(1)
	time.Sleep(10 * timeout)
	ts.heal(1)
	time.Sleep(2 * timeout)

	for j := 0; j < 2; j++ {
		if st := ts.rep(j).Status(); st.Term != 0 || st.IsLeader != (j == 0) {
			t.Errorf("r%d after a follower partition: term %d, leader %v; want term 0, r0 leading", j, st.Term, st.IsLeader)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := ts.client().CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{}); err != nil {
		t.Fatalf("mutation after heal: %v", err)
	}
}

func TestSnapshotCatchUpAfterTruncation(t *testing.T) {
	ts := newTestGroup(t, 2, func(_ int, cfg *ReplicaConfig) {
		cfg.MaxLogRecords = 8 // force truncation quickly
	})
	g := ts.client()
	ctx := context.Background()

	blob, err := g.CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}

	// With 2 replicas a deaf follower stalls every quorum (strict
	// majority): a mutation must fail, not ack. Use CreateBlob as the
	// probe — unlike an assign, a locally-executed-but-unacked create
	// cannot wedge later publications.
	ts.partition(1)
	sctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	_, err = ts.rep(0).CreateBlob(sctx, pageSize, capBytes, erasure.Redundancy{})
	cancel()
	if err == nil {
		t.Fatal("mutation quorum-acked with the only follower partitioned")
	}
	ts.heal(1)

	// Healed: writes flow again, and enough of them truncate the log.
	var last meta.Version
	for i := 0; i < 30; i++ {
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		a, err := g.AssignVersion(cctx, blob, uint64(10+i), 0, pageSize, false)
		if err != nil {
			cancel()
			t.Fatalf("write %d after heal: %v", i, err)
		}
		if _, err := g.Commit(cctx, blob, a.Version, true); err != nil {
			cancel()
			t.Fatalf("commit %d after heal: %v", i, err)
		}
		cancel()
		last = a.Version
	}
	if base := ts.rep(0).Status().LogBase; base == 0 {
		t.Error("leader log never truncated; test exercises nothing")
	}

	// Now a real snapshot catch-up: kill + restart the follower (comes
	// back empty, far behind the truncation horizon) and make sure it
	// reinstalls state by snapshot.
	ts.kill(1)
	ts.restart(1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := ts.rep(1).Status()
		lead := ts.rep(0).Status()
		if st.Blobs == lead.Blobs && st.LogLen >= lead.LogLen && st.LogBase > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up by snapshot: %+v (leader %+v)", st, lead)
		}
		time.Sleep(time.Millisecond)
	}
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if v, _, err := g.Latest(cctx, blob); err != nil || v != last {
		t.Fatalf("latest after follower rejoin = %d, %v, want %d", v, err, last)
	}
}

func TestPartitionedLeaderCannotAck(t *testing.T) {
	ts := newTestGroup(t, 3, nil)
	g := ts.client()
	ctx := context.Background()

	blob, err := g.CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}

	// Partition the leader. Its own clients get "unavailable"; the
	// remaining majority elects a new leader and keeps going.
	ts.partition(0)
	if _, err := ts.rep(0).AssignVersion(ctx, blob, 1, 0, pageSize, false); !IsUnavailable(err) {
		t.Fatalf("partitioned leader error = %v, want unavailable", err)
	}
	newLead := ts.waitLeader(0, 5*time.Second)

	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	a, err := g.AssignVersion(cctx, blob, 2, 0, pageSize, false)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if _, err := g.Commit(cctx, blob, a.Version, true); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()

	// Heal: the deposed leader must step down (higher term wins) and
	// resync to the majority's state.
	ts.heal(0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := ts.rep(0).Status()
		lead := ts.rep(newLead).Status()
		if !st.IsLeader && st.Term == lead.Term && st.LogLen >= lead.LogLen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed ex-leader never converged: %+v (leader %+v)", st, lead)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateStore wraps a fakeStore; while blocked it wedges StoreNodes until
// the context dies — the "slow metadata plane" fault for repair tests.
type gateStore struct {
	*fakeStore
	blocked chan struct{} // closed = pass through
}

func (g *gateStore) StoreNodes(ctx context.Context, nodes []meta.Node) error {
	select {
	case <-g.blocked:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.fakeStore.StoreNodes(ctx, nodes)
}

func TestRepairSurvivesHandoff(t *testing.T) {
	// PR 5 pinned the abort path: the abort mark lands before the repair
	// fill, so a crash between the two leaves a repairable orphan, never
	// a version that can be re-admitted. Extend that across a leader
	// change: the leader dies after quorum-acking the abort but before
	// the fill completes; the next leader must finish the fill.
	shared := newFakeStore()
	gate := &gateStore{fakeStore: shared, blocked: make(chan struct{})}
	ts := newTestGroup(t, 2, func(j int, cfg *ReplicaConfig) {
		cfg.Manager.RepairTimeout = 25 * time.Millisecond
		if j == 0 {
			cfg.Manager.Store = gate // leader's fill wedges
		} else {
			cfg.Manager.Store = shared
		}
	})
	g := ts.client()
	ctx := context.Background()

	blob, err := g.CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := g.AssignVersion(ctx, blob, 11, 0, 2*pageSize, false)
	if err != nil {
		t.Fatal(err)
	}

	// Abort v1. The abort mark quorum-acks, then the leader's fill hangs
	// on its gated store until the bounded repair context dies — Abort
	// returns an error, leaving an aborted-but-uncommitted orphan.
	if err := g.Abort(ctx, blob, a1.Version); err == nil {
		t.Fatal("abort fill succeeded through a wedged store")
	}
	// The follower has the abort mark (it was quorum-acked).
	recs, err := g.History(ctx, blob, 0, 10)
	if err != nil || len(recs) != 1 || !recs[0].Aborted {
		t.Fatalf("history after abort = %+v, %v", recs, err)
	}

	// Leader dies mid-repair; the survivor campaigns. With 2 replicas a
	// lone survivor may self-elect but cannot ack mutations until its
	// peer returns (strict quorum), so restart the dead one too.
	ts.kill(0)
	ts.restart(0)
	newLead := ts.waitLeader(-1, 5*time.Second)

	// The new leader's RepairOrphans (or repair scan) must finish the
	// fill through its *unblocked* store and publish v1 as a no-op.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cctx, cancel := context.WithTimeout(ctx, time.Second)
		v, _, err := g.Latest(cctx, blob)
		cancel()
		if err == nil && v == a1.Version {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphaned abort never repaired (leader %d): latest = %d, %v", newLead, v, err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The dead writer's late commit stays rejected after the handoff
	// (the wire flattens ErrAborted to a server-error string, so just
	// require rejection).
	if _, err := g.Commit(ctx, blob, a1.Version, false); err == nil {
		t.Fatal("late commit accepted after repaired handoff")
	}

	// And the repaired leaves reference the zero page (fresh blob).
	n, err := shared.FetchNode(ctx, meta.NodeKey{
		Blob: blob, Version: a1.Version, Range: meta.NodeRange{Start: 0, Size: 1},
	})
	if err != nil {
		t.Fatalf("repaired leaf missing: %v", err)
	}
	if n.Leaf.Write != 0 {
		t.Errorf("repaired leaf = write %d, want 0 (zero page)", n.Leaf.Write)
	}
}

func TestParseGroupAddrs(t *testing.T) {
	g, err := ParseGroupAddrs("a:1, b:1,c:1")
	if err != nil || len(g) != 3 || g[1] != "b:1" || g[2] != "c:1" {
		t.Fatalf("parse = %+v, %v", g, err)
	}
	single, err := ParseGroupAddrs("vm:rpc")
	if err != nil || len(single) != 1 || single[0] != "vm:rpc" {
		t.Fatalf("single parse = %+v, %v", single, err)
	}
	if _, err := ParseGroupAddrs(""); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := ParseGroupAddrs("a,,b"); err == nil {
		t.Error("empty replica entry accepted")
	}
	if _, err := ParseGroupAddrs("a:1,b:1;c:1,d:1"); err == nil {
		t.Error("a second group accepted")
	}
}

// TestRepliesNeverReflectUnackedState: a leader that has applied a
// commit no follower has acked must not tell readers the version is
// published — its writer has not been told the commit succeeded, and a
// leader crash now would lose it. Once the quorum acks, they must.
func TestRepliesNeverReflectUnackedState(t *testing.T) {
	ts := newTestGroup(t, 3, func(_ int, cfg *ReplicaConfig) {
		cfg.ElectionTimeout = 2 * time.Second // the commit outwaits the partition
	})
	ctx := context.Background()
	lead := ts.rep(0)
	blob, err := lead.CreateBlob(ctx, pageSize, capBytes, erasure.Redundancy{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := lead.AssignVersion(ctx, blob, 1, 0, pageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	ts.partition(1)
	ts.partition(2)

	committed := make(chan error, 1)
	go func() {
		_, err := lead.Commit(ctx, blob, a.Version, false)
		committed <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for lead.Status().LogLen < 3 { // create, assign, commit
		if time.Now().After(deadline) {
			t.Fatal("leader never logged the commit")
		}
		time.Sleep(time.Millisecond)
	}

	// published asks the leader's three publication reads; each reports
	// whether it answered that v1 is published (an error reports nothing).
	published := func(wait time.Duration) (latest, info, version bool) {
		read := func(h func(*Manager, context.Context, []byte) ([]byte, error), body []byte) []byte {
			rctx, cancel := context.WithTimeout(ctx, wait)
			defer cancel()
			resp, err := lead.readHandler(h)(rctx, body)
			if err != nil {
				return nil
			}
			return resp
		}
		if resp := read((*Manager).handleLatest, encodeUint64(blob)); resp != nil {
			v, _, err := decodeUint64Pair(resp)
			latest = err == nil && v >= a.Version
		}
		if resp := read((*Manager).handleInfo, encodeUint64(blob)); resp != nil {
			bi, err := decodeBlobInfo(resp)
			info = err == nil && bi.LatestPublished >= a.Version
		}
		if resp := read((*Manager).handleVersionInfo, newAbortReq(blob, a.Version)); resp != nil {
			pub, _, err := decodeBoolUint64(resp)
			version = err == nil && pub
		}
		return latest, info, version
	}
	if l, i, v := published(50 * time.Millisecond); l || i || v {
		t.Errorf("unacked commit reported published: MLatest %v, MInfo %v, MVersionInfo %v", l, i, v)
	}
	select {
	case err := <-committed:
		t.Fatalf("commit returned without a quorum: %v", err)
	default:
	}

	ts.heal(1)
	ts.heal(2)
	if err := <-committed; err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
	if l, i, v := published(5 * time.Second); !l || !i || !v {
		t.Errorf("acked commit not reported published: MLatest %v, MInfo %v, MVersionInfo %v", l, i, v)
	}
}

// TestAppendNamingLeaderOutsideShardIsRejected: an append whose leader
// index lies outside the group is malformed, even at a higher term: it
// fails and leaves the replica's term, role and leader as they were.
func TestAppendNamingLeaderOutsideShardIsRejected(t *testing.T) {
	r := newLone(t, Config{})
	before := r.Status()
	body := replicationReq(before.Term+1, 1, 0, nil) // a lone replica's group has index 0 only
	if _, err := r.handleVmAppend(context.Background(), body); err == nil {
		t.Fatal("append naming leader 1 of a one-replica group accepted")
	}
	if after := r.Status(); after != before {
		t.Fatalf("status went from %+v to %+v", before, after)
	}
}
