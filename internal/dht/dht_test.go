package dht

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"blob/internal/netsim"
	"blob/internal/rpc"
	"blob/internal/wire"
)

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil)
	if got := empty.ReplicasFor(42, 3); got != nil {
		t.Errorf("empty ring replicas = %v", got)
	}
	if _, ok := empty.Primary(42); ok {
		t.Error("empty ring should have no primary")
	}
	one := NewRing([]NodeInfo{{ID: 1, Addr: "a:1"}})
	reps := one.ReplicasFor(42, 3)
	if len(reps) != 1 || reps[0].Addr != "a:1" {
		t.Errorf("single-node replicas = %v", reps)
	}
}

func TestRingReplicasDistinct(t *testing.T) {
	nodes := make([]NodeInfo, 8)
	for i := range nodes {
		nodes[i] = NodeInfo{ID: uint64(i + 1), Addr: fmt.Sprintf("n%d:1", i)}
	}
	r := NewRing(nodes)
	f := func(key uint64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		reps := r.ReplicasFor(key, k)
		want := k
		if want > len(nodes) {
			want = len(nodes)
		}
		if len(reps) != want {
			return false
		}
		seen := map[uint64]bool{}
		for _, rep := range reps {
			if seen[rep.ID] {
				return false
			}
			seen[rep.ID] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingDeterministic(t *testing.T) {
	nodes := []NodeInfo{{1, "a:1"}, {2, "b:1"}, {3, "c:1"}}
	r1 := NewRing(nodes)
	r2 := NewRing([]NodeInfo{{3, "c:1"}, {1, "a:1"}, {2, "b:1"}}) // shuffled
	for key := uint64(0); key < 1000; key++ {
		a := r1.ReplicasFor(wire.Mix64(key), 2)
		b := r2.ReplicasFor(wire.Mix64(key), 2)
		if len(a) != len(b) {
			t.Fatalf("key %d: lengths differ", key)
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("key %d: placement depends on input order", key)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	nodes := make([]NodeInfo, 10)
	for i := range nodes {
		nodes[i] = NodeInfo{ID: uint64(i + 1), Addr: fmt.Sprintf("n%d:1", i)}
	}
	r := NewRing(nodes)
	counts := map[uint64]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		p, _ := r.Primary(wire.HashFields(uint64(i)))
		counts[p.ID]++
	}
	want := keys / len(nodes)
	for id, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("node %d holds %d keys, want within [%d,%d]", id, c, want/2, want*2)
		}
	}
}

func TestStoreWriteOnce(t *testing.T) {
	s := NewStore()
	if !s.Put(1, []byte("first")) {
		t.Fatal("first put should be fresh")
	}
	if s.Put(1, []byte("second")) {
		t.Fatal("second put should be a no-op")
	}
	v, ok := s.Get(1)
	if !ok || string(v) != "first" {
		t.Errorf("Get = %q, %v; want first", v, ok)
	}
	if s.DupPuts.Value() != 1 {
		t.Errorf("DupPuts = %d, want 1", s.DupPuts.Value())
	}
}

func TestStoreDeleteAndAccounting(t *testing.T) {
	s := NewStore()
	s.Put(1, make([]byte, 100))
	s.Put(2, make([]byte, 50))
	if got := s.Bytes.Value(); got != 150 {
		t.Errorf("Bytes = %d, want 150", got)
	}
	if !s.Delete(1) {
		t.Fatal("delete existing should report true")
	}
	if s.Delete(1) {
		t.Fatal("delete missing should report false")
	}
	if got := s.Bytes.Value(); got != 50 {
		t.Errorf("Bytes after delete = %d, want 50", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestStorePutDoesNotAliasCaller(t *testing.T) {
	s := NewStore()
	buf := []byte{1, 2, 3}
	s.Put(7, buf)
	buf[0] = 99
	v, _ := s.Get(7)
	if v[0] != 1 {
		t.Error("store aliases caller buffer")
	}
}

// testFabric spins up n store nodes plus a directory over netsim.
func testFabric(t testing.TB, n int, replicas int) (*Client, []*Store, func()) {
	t.Helper()
	fab := netsim.New(netsim.Fast())
	var closers []func()
	if _, bench := t.(*testing.B); !bench {
		// A value used after its response went back to the pool reads
		// poison, so it fails its test loudly; restored last.
		closers = append(closers, rpc.PoisonOnRelease(poisonByte))
	}

	dirSrv := rpc.NewServer()
	dir := NewDirectory()
	dir.RegisterHandlers(dirSrv)
	dl, err := fab.Host("dir").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	dirSrv.Start(dl)
	closers = append(closers, dirSrv.Close)

	stores := make([]*Store, n)
	for i := 0; i < n; i++ {
		srv := rpc.NewServer()
		stores[i] = NewStore()
		stores[i].RegisterHandlers(srv)
		host := fab.Host(fmt.Sprintf("meta%d", i))
		l, err := host.Listen("rpc")
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(l)
		closers = append(closers, srv.Close)
	}

	pool := rpc.NewPool(hostDialer{fab.Host("cli")})
	closers = append(closers, pool.Close)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("meta%d:rpc", i)
		if _, err := RegisterWith(context.Background(), pool, "dir:rpc", addr); err != nil {
			t.Fatal(err)
		}
	}
	cli, err := NewDirectoryClient(context.Background(), pool, "dir:rpc", replicas)
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		fab.Close()
	}
	return cli, stores, cleanup
}

// put1 and get1 are the one-key forms of MultiPut and MultiGet.
func put1(cli *Client, key uint64, value []byte) error {
	return cli.MultiPut(context.Background(), []KV{{Key: key, Value: value}})
}

func get1(cli *Client, key uint64) (value []byte, found bool, err error) {
	got, err := multiGet(context.Background(), cli, []uint64{key})
	value, found = got[key]
	return value, found, err
}

// multiGet is MultiGet with what it found copied out of the responses,
// which it then releases.
func multiGet(ctx context.Context, cli *Client, keys []uint64) (map[uint64][]byte, error) {
	var vs Values
	defer vs.Release()
	err := cli.MultiGet(ctx, keys, Hint{}, &vs)
	if err != nil {
		return nil, err
	}
	got := make(map[uint64][]byte, vs.Len())
	for k, v := range vs.m {
		got[k] = bytes.Clone(v.body)
	}
	return got, nil
}

// wipe empties a store, as a node that restarts does.
func wipe(s *Store) {
	for sh := range s.shards {
		s.shards[sh].mu.Lock()
		s.shards[sh].m = make(map[uint64][]byte)
		s.shards[sh].mu.Unlock()
	}
}

type hostDialer struct{ h *netsim.Host }

func (d hostDialer) Dial(addr string) (net.Conn, error) { return d.h.Dial(addr) }

func TestClientPutGetRoundTrip(t *testing.T) {
	cli, _, cleanup := testFabric(t, 4, 1)
	defer cleanup()
	for i := uint64(0); i < 100; i++ {
		key := wire.HashFields(i)
		if err := put1(cli, key, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		key := wire.HashFields(i)
		v, found, err := get1(cli, key)
		if err != nil || !found {
			t.Fatalf("get %d: found %v, err %v", i, found, err)
		}
		if want := fmt.Sprintf("value-%d", i); string(v) != want {
			t.Errorf("get %d = %q, want %q", i, v, want)
		}
	}
}

func TestClientGetMissing(t *testing.T) {
	cli, _, cleanup := testFabric(t, 3, 2)
	defer cleanup()
	// Both replicas were asked and hold nothing: absent, not an error.
	if v, found, err := get1(cli, 12345); found || err != nil {
		t.Errorf("missing key = %q, found %v, err %v; want absent without error", v, found, err)
	}
}

func TestClientMultiPutMultiGet(t *testing.T) {
	cli, stores, cleanup := testFabric(t, 5, 1)
	defer cleanup()
	ctx := context.Background()
	var kvs []KV
	var keys []uint64
	for i := uint64(0); i < 500; i++ {
		k := wire.HashFields(1000 + i)
		kvs = append(kvs, KV{Key: k, Value: []byte{byte(i), byte(i >> 8)}})
		keys = append(keys, k)
	}
	if err := cli.MultiPut(ctx, kvs); err != nil {
		t.Fatal(err)
	}
	got, err := multiGet(ctx, cli, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("MultiGet returned %d of %d keys", len(got), len(keys))
	}
	for i, k := range keys {
		v := got[k]
		if len(v) != 2 || v[0] != byte(i) {
			t.Errorf("key %d wrong value %v", i, v)
		}
	}
	// Entries should be spread over all nodes.
	for i, s := range stores {
		if s.Len() == 0 {
			t.Errorf("store %d received no entries: imbalanced dispersal", i)
		}
	}
}

func TestClientMultiGetPartialMiss(t *testing.T) {
	cli, _, cleanup := testFabric(t, 3, 1)
	defer cleanup()
	ctx := context.Background()
	if err := put1(cli, 111, []byte("here")); err != nil {
		t.Fatal(err)
	}
	got, err := multiGet(ctx, cli, []uint64{111, 222})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[111]) != "here" {
		t.Errorf("present key = %q", got[111])
	}
	if _, ok := got[222]; ok {
		t.Error("missing key should be absent from result")
	}
}

func TestReplicationSurvivesNodeLoss(t *testing.T) {
	cli, stores, cleanup := testFabric(t, 4, 2)
	defer cleanup()
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = wire.HashFields(uint64(7000 + i))
		if err := put1(cli, keys[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate loss of node 0 by wiping its store: replicas must cover.
	wipe(stores[0])
	for i, k := range keys {
		v, found, err := get1(cli, k)
		if err != nil || !found {
			t.Fatalf("key %d unreadable after replica loss: found %v, err %v", i, found, err)
		}
		if v[0] != byte(i) {
			t.Errorf("key %d value corrupted", i)
		}
	}
}

func TestReadRepairHealsPrimary(t *testing.T) {
	cli, stores, cleanup := testFabric(t, 3, 2)
	defer cleanup()
	key := wire.HashFields(4242)
	if err := put1(cli, key, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	// Find and wipe the primary replica's copy.
	prim, _ := cli.Ring().Primary(key)
	primStore := stores[prim.ID-1] // directory assigns IDs 1..n in registration order
	if !primStore.Delete(key) {
		t.Fatal("test bug: primary did not hold the key")
	}
	// The fetch succeeds from the secondary and triggers repair.
	v, _, err := get1(cli, key)
	if err != nil || string(v) != "precious" {
		t.Fatalf("get after primary loss: %q, %v", v, err)
	}
	if cli.ReadRepairs.Value() != 1 {
		t.Errorf("ReadRepairs = %d, want 1", cli.ReadRepairs.Value())
	}
	// The repair is async; poll briefly for the primary to heal.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := primStore.Get(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("primary not healed by read repair")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMultiGetFallbackTier(t *testing.T) {
	cli, stores, cleanup := testFabric(t, 4, 2)
	defer cleanup()
	ctx := context.Background()
	keys := make([]uint64, 100)
	var kvs []KV
	for i := range keys {
		keys[i] = wire.HashFields(uint64(9000 + i))
		kvs = append(kvs, KV{Key: keys[i], Value: []byte{byte(i)}})
	}
	if err := cli.MultiPut(ctx, kvs); err != nil {
		t.Fatal(err)
	}
	wipe(stores[1])
	got, err := multiGet(ctx, cli, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Errorf("MultiGet after node wipe returned %d/%d", len(got), len(keys))
	}
	// The batched fetch heals what it found missing: every key whose
	// primary is the wiped node was answered "not found" there and served
	// by the secondary, so it is re-put, one frame for the lot.
	var lost []uint64
	for _, k := range keys {
		if prim, _ := cli.Ring().Primary(k); prim.ID == 2 { // stores[1]: ids are 1..n in registration order
			lost = append(lost, k)
		}
	}
	if len(lost) == 0 {
		t.Fatal("test bug: the wiped node is nobody's primary")
	}
	if got := cli.ReadRepairs.Value(); got != int64(len(lost)) {
		t.Errorf("ReadRepairs = %d, want %d", got, len(lost))
	}
	deadline := time.Now().Add(2 * time.Second)
	for stores[1].Len() < len(lost) {
		if time.Now().After(deadline) {
			t.Fatalf("wiped primary holds %d of its %d keys again", stores[1].Len(), len(lost))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMultiGetUnreachableIsNotAbsent pins the difference between "no
// replica holds the key" and "no replica could be asked": only the
// first may come back as an absent key. mstore reads absence as
// ErrMissingNode and dead-writer repair reads that as "collected".
func TestMultiGetUnreachableIsNotAbsent(t *testing.T) {
	cli, stores, cleanup := testFabric(t, 2, 2)
	defer cleanup()
	ctx := context.Background()
	const key, gone = 4711, 4712
	if err := put1(cli, key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Every node unreachable: an error — not an empty map.
	dead := NewClient(cli.pool, NewRing([]NodeInfo{{ID: 1, Addr: "nowhere:rpc"}}), 1)
	if got, err := multiGet(ctx, dead, []uint64{key}); err == nil {
		t.Fatalf("MultiGet on a dead ring = %d values, nil error; want the dial error", len(got))
	}

	// One replica of each key unreachable, the other serving.
	reps := cli.Ring().ReplicasFor(key, 2)
	withDead := func(tier int) *Client {
		nodes := []NodeInfo{reps[0], reps[1]}
		nodes[tier].Addr = "nowhere:rpc"
		return NewClient(cli.pool, NewRing(nodes), 2)
	}
	// Dead primary, live secondary: held keys resolve, and a key the
	// secondary answers "not found" for is absent — it was asked.
	got, err := multiGet(ctx, withDead(0), []uint64{key, gone})
	if err != nil || string(got[key]) != "v" || len(got) != 1 {
		t.Fatalf("dead primary: got %v, err %v; want the one held key", got, err)
	}
	// Live primary that misses, dead secondary: the key's last attempt
	// failed, so nobody may conclude it is absent.
	for _, st := range stores {
		st.Delete(key)
	}
	stores[reps[1].ID-1].Put(key, []byte("v")) // held only where nobody can reach it
	if got, err := multiGet(ctx, withDead(1), []uint64{key}); err == nil {
		t.Fatalf("miss on primary + dead secondary = %v, nil error; want an error", got)
	}
}

// breakingDialer hands out connections whose next Write fails once
// armed: a cached connection that died without the client noticing.
type breakingDialer struct {
	hostDialer
	armed atomic.Bool
}

type breakingConn struct {
	net.Conn
	d *breakingDialer
}

func (d *breakingDialer) Dial(addr string) (net.Conn, error) {
	c, err := d.hostDialer.Dial(addr)
	return breakingConn{c, d}, err
}

func (c breakingConn) Write(p []byte) (int, error) {
	if c.d.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, errors.New("broken pipe")
	}
	return c.Conn.Write(p)
}

// TestMultiGetReasksAfterTransportFailure: the wave call bypasses the
// pool's retry policy, so a group whose call broke in transport must be
// re-asked under it (redial, retry) before its keys count as missed.
func TestMultiGetReasksAfterTransportFailure(t *testing.T) {
	fab := netsim.New(netsim.Fast())
	defer fab.Close()
	srv := rpc.NewServer()
	st := NewStore()
	st.RegisterHandlers(srv)
	l, err := fab.Host("meta").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	defer srv.Close()
	d := &breakingDialer{hostDialer: hostDialer{fab.Host("cli")}}
	pool := rpc.NewPool(d)
	defer pool.Close()
	cli := NewClient(pool, NewRing([]NodeInfo{{ID: 1, Addr: "meta:rpc"}}), 1)
	ctx := context.Background()
	if err := put1(cli, 7, []byte("seven")); err != nil { // warms the connection
		t.Fatal(err)
	}
	d.armed.Store(true)
	got, err := multiGet(ctx, cli, []uint64{7, 8})
	if err != nil || string(got[7]) != "seven" || len(got) != 1 {
		t.Fatalf("MultiGet over a connection that breaks = %v, %v; want the held key after a re-ask", got, err)
	}
	if d.armed.Load() {
		t.Fatal("test bug: the wave call never hit the broken connection")
	}
}

func TestDirectoryIdempotentRegister(t *testing.T) {
	d := NewDirectory()
	id1, _ := d.Register("x:1")
	id2, _ := d.Register("x:1")
	if id1 != id2 {
		t.Errorf("re-register changed ID: %d vs %d", id1, id2)
	}
	id3, epoch := d.Register("y:1")
	if id3 == id1 {
		t.Error("distinct nodes share an ID")
	}
	if epoch != 2 {
		t.Errorf("epoch = %d, want 2", epoch)
	}
	_, members := d.Members()
	if len(members) != 2 {
		t.Errorf("members = %d, want 2", len(members))
	}
}

func TestClientRefresh(t *testing.T) {
	cli, _, cleanup := testFabric(t, 2, 1)
	defer cleanup()
	before := cli.Ring().Size()
	if err := cli.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cli.Ring().Size() != before {
		t.Errorf("ring size changed on no-op refresh")
	}
}

func TestStoreStatsRPC(t *testing.T) {
	cli, _, cleanup := testFabric(t, 2, 1)
	defer cleanup()
	ctx := context.Background()
	if err := put1(cli, 5, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	sts, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var totalPuts, totalBytes uint64
	for _, st := range sts {
		totalPuts += st.Puts
		totalBytes += st.Bytes
	}
	if totalPuts != 1 || totalBytes != 3 {
		t.Errorf("aggregate stats: puts=%d bytes=%d, want 1/3", totalPuts, totalBytes)
	}
}

func BenchmarkMultiPut512(b *testing.B) {
	cli, _, cleanup := testFabric(b, 8, 1)
	defer cleanup()
	ctx := context.Background()
	val := make([]byte, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvs := make([]KV, 512)
		for j := range kvs {
			kvs[j] = KV{Key: wire.HashFields(uint64(i), uint64(j)), Value: val}
		}
		if err := cli.MultiPut(ctx, kvs); err != nil {
			b.Fatal(err)
		}
	}
}
