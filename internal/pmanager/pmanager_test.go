package pmanager

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"blob/internal/dht"
	"blob/internal/erasure"
	"blob/internal/netsim"
	dataprovider "blob/internal/provider"
	"blob/internal/rpc"
)

func newManagerWith(t *testing.T, cfg Config, n int) *Manager {
	t.Helper()
	m := New(cfg)
	for i := 0; i < n; i++ {
		m.Register(fmt.Sprintf("prov%d:rpc", i), 0)
	}
	return m
}

func TestRegisterIdempotent(t *testing.T) {
	m := New(Config{})
	id1 := m.Register("a:1", 100)
	id2 := m.Register("a:1", 200)
	if id1 != id2 {
		t.Errorf("re-register changed ID: %d vs %d", id1, id2)
	}
	if id3 := m.Register("b:1", 100); id3 == id1 {
		t.Error("distinct providers share an ID")
	}
}

func TestAllocateNoProviders(t *testing.T) {
	m := New(Config{})
	if _, _, err := m.Allocate(4, 1); !errors.Is(err, ErrNoProviders) {
		t.Errorf("err = %v, want ErrNoProviders", err)
	}
}

func TestAllocateShape(t *testing.T) {
	m := newManagerWith(t, Config{}, 5)
	ids, addrs, err := m.Allocate(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 16 {
		t.Fatalf("len(ids) = %d, want 16", len(ids))
	}
	for i := 0; i < 8; i++ {
		a, b := ids[i*2], ids[i*2+1]
		if a == b {
			t.Errorf("page %d: replicas on the same provider %d", i, a)
		}
	}
	for _, id := range ids {
		if _, ok := addrs[id]; !ok {
			t.Errorf("id %d missing from address map", id)
		}
	}
}

func TestRoundRobinBalances(t *testing.T) {
	m := newManagerWith(t, Config{}, 4)
	counts := map[uint32]int{}
	for i := 0; i < 25; i++ {
		ids, _, err := m.Allocate(4, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			counts[id]++
		}
	}
	for id, c := range counts {
		if c != 25 {
			t.Errorf("provider %d got %d pages, want exactly 25 under round-robin", id, c)
		}
	}
}

// Placing pages must not touch the heartbeat-reported byte count: the
// monitor's per-provider bytes_used falls back to Members.
func TestAllocateLeavesBytesUsed(t *testing.T) {
	m := newManagerWith(t, Config{}, 2)
	m.Heartbeat(1, 4096, 0)
	m.Heartbeat(2, 4096, 0)
	if _, _, err := m.Allocate(8, 2); err != nil {
		t.Fatal(err)
	}
	_, members := m.Members()
	for _, mb := range members {
		if mb.BytesUsed != 4096 {
			t.Errorf("provider %d: BytesUsed = %d after Allocate, want the heartbeat's 4096", mb.ID, mb.BytesUsed)
		}
	}
}

func TestHeartbeatTimeoutExcludesDead(t *testing.T) {
	m := New(Config{HeartbeatTimeout: 30 * time.Millisecond})
	idA := m.Register("a:1", 0)
	_ = m.Register("b:1", 0)
	time.Sleep(50 * time.Millisecond) // both go stale
	if _, _, err := m.Allocate(1, 1); !errors.Is(err, ErrNoProviders) {
		t.Fatalf("stale providers still allocatable: %v", err)
	}
	m.Heartbeat(idA, 10, 0) // A comes back
	ids, _, err := m.Allocate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id != idA {
			t.Errorf("allocated dead provider %d", id)
		}
	}
}

func TestHeartbeatUnknownID(t *testing.T) {
	m := New(Config{})
	if m.Heartbeat(99, 0, 0) {
		t.Error("heartbeat for unknown ID should report false")
	}
}

func TestReplicasClampedToLiveCount(t *testing.T) {
	m := newManagerWith(t, Config{}, 2)
	ids, _, err := m.Allocate(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Errorf("got %d replicas, want clamp to 2", len(ids))
	}
}

type hostDialer struct{ h *netsim.Host }

func (d hostDialer) Dial(addr string) (net.Conn, error) { return d.h.Dial(addr) }

func TestRPCEndToEnd(t *testing.T) {
	fab := netsim.New(netsim.Fast())
	defer fab.Close()
	m := New(Config{})
	srv := rpc.NewServer()
	m.RegisterHandlers(srv)
	l, err := fab.Host("pm").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	defer srv.Close()

	pool := rpc.NewPool(hostDialer{fab.Host("cli")})
	defer pool.Close()
	ctx := context.Background()

	id, err := RegisterProvider(ctx, pool, "pm:rpc", "prov0:rpc", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SendHeartbeat(ctx, pool, "pm:rpc", id, 123, 4); err != nil {
		t.Fatal(err)
	}

	resp, err := pool.Call(ctx, "pm:rpc", MAllocate, EncodeAllocate(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := DecodeAllocation(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.IDs) != 3 {
		t.Fatalf("alloc IDs = %v", alloc.IDs)
	}
	if alloc.Addrs[id] != "prov0:rpc" {
		t.Errorf("addr map = %v", alloc.Addrs)
	}

	// The one listing carries addresses, the advertised mode and load.
	ms, err := FetchMembers(ctx, pool, "pm:rpc")
	if err != nil {
		t.Fatal(err)
	}
	if ms.Epoch == 0 || len(ms.Members) != 1 || ms.Members[0].Addr != "prov0:rpc" {
		t.Fatalf("members = %+v", ms)
	}
	if ms.Redundancy != (erasure.Redundancy{K: 1}) {
		t.Errorf("default deployment advertises %v, want rs(1,0)", ms.Redundancy)
	}
	if !ms.Members[0].Alive || ms.Members[0].BytesUsed != 123 {
		t.Errorf("members = %+v", ms)
	}
}

func TestAllocateInvalidCount(t *testing.T) {
	m := newManagerWith(t, Config{}, 1)
	if _, _, err := m.Allocate(0, 1); err == nil {
		t.Error("Allocate(0) should fail")
	}
	if _, _, err := m.Allocate(1, 0); err == nil {
		t.Error("Allocate(1, 0) should fail: the group size comes off the wire")
	}
}

// TestHugeCountsRejected sends each count-prefixed decoder of the
// placement plane a count of 2^40 and one of 2^63. Sized before it is
// checked, the first exhausts memory (or spins through 2^40 entries) and
// the second wraps negative and panics in make; each must be a plain
// decode error instead.
func TestHugeCountsRejected(t *testing.T) {
	m := newManagerWith(t, Config{}, 2)
	listHeader := make([]byte, 10) // epoch, k, m
	for _, tc := range []struct {
		name   string
		decode func(n uint64) error
	}{
		{"handleAllocate pages", func(n uint64) error {
			_, err := m.handleAllocate(context.Background(), binary.AppendUvarint(binary.AppendUvarint(nil, n), 1))
			return err
		}},
		{"handleAllocate replicas", func(n uint64) error {
			_, err := m.handleAllocate(context.Background(), binary.AppendUvarint(binary.AppendUvarint(nil, 1), n))
			return err
		}},
		{"DecodeAllocation", func(n uint64) error {
			_, err := DecodeAllocation(binary.AppendUvarint([]byte{0}, n)) // no ids, then the address map
			return err
		}},
		{"decodeMembership", func(n uint64) error {
			_, err := decodeMembership(binary.AppendUvarint(listHeader, n))
			return err
		}},
		{"dht.DecodeMembers", func(n uint64) error {
			_, _, err := dht.DecodeMembers(binary.AppendUvarint(make([]byte, 8), n))
			return err
		}},
	} {
		for _, n := range []uint64{1 << 40, 1 << 63} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, n), func(t *testing.T) {
				if err := tc.decode(n); err == nil {
					t.Errorf("count %d accepted", n)
				}
			})
		}
	}
}

func BenchmarkAllocate256Pages(b *testing.B) {
	m := New(Config{})
	for i := 0; i < 40; i++ {
		m.Register(fmt.Sprintf("p%d:rpc", i), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Allocate(256, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeathWatch pins the heartbeat-death notification protocol: one
// callback per detected death, re-armed by a later heartbeat.
func TestDeathWatch(t *testing.T) {
	m := New(Config{HeartbeatTimeout: 40 * time.Millisecond})
	id := m.Register("prov0:rpc", 0)

	deaths := make(chan uint32, 8)
	stop := make(chan struct{})
	defer close(stop)
	go m.DeathWatch(stop, func(id uint32) { deaths <- id })

	// Silence past the timeout: exactly one notification.
	select {
	case got := <-deaths:
		if got != id {
			t.Fatalf("death of %d, want %d", got, id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no death notification")
	}
	select {
	case got := <-deaths:
		t.Fatalf("duplicate death notification for %d", got)
	case <-time.After(150 * time.Millisecond):
	}

	// A heartbeat revives the provider and re-arms the watch.
	if !m.Heartbeat(id, 0, 0) {
		t.Fatal("heartbeat rejected")
	}
	select {
	case got := <-deaths:
		if got != id {
			t.Fatalf("death of %d, want %d", got, id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no death notification after revival lapse")
	}
}

// TestDeathWatchDisabled pins that the watch is inert without a
// heartbeat timeout (no liveness signal exists to judge death by).
func TestDeathWatchDisabled(t *testing.T) {
	m := New(Config{})
	m.Register("prov0:rpc", 0)
	done := make(chan struct{})
	go func() {
		m.DeathWatch(make(chan struct{}), func(uint32) { t.Error("death reported without timeout") })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("DeathWatch did not return immediately")
	}
}

// TestHeartbeatLoopReportsLoad pins HeartbeatLoop: every beat carries
// the store's current load, and closing stop returns the loop.
func TestHeartbeatLoopReportsLoad(t *testing.T) {
	fab := netsim.New(netsim.Config{})
	defer fab.Close()
	m := New(Config{})
	id := m.Register("prov0:data", 0)
	srv := rpc.NewServer()
	m.RegisterHandlers(srv)
	l, err := fab.Host("pm").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	defer srv.Close()
	pool := rpc.NewPool(hostDialer{fab.Host("hb")})
	defer pool.Close()

	svc := dataprovider.NewService(dataprovider.NewStore(0))
	// reported waits until the manager holds the store's current bytes.
	reported := func() {
		t.Helper()
		want := svc.Snapshot().BytesUsed
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, members := m.Members(); members[0].BytesUsed == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("manager never saw the store's %d bytes", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	put := func(rel uint32) {
		t.Helper()
		if err := svc.Store().PutPages([]dataprovider.Page{{Blob: 1, Write: 1, RelPage: rel, Data: []byte("page")}}); err != nil {
			t.Fatal(err)
		}
	}

	put(0)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		HeartbeatLoop(stop, pool, "pm:rpc", id, 2*time.Millisecond,
			func() *dataprovider.Service { return svc }, t.Logf)
		close(done)
	}()
	reported()
	put(1)
	reported()

	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("HeartbeatLoop did not return after stop closed")
	}
}
