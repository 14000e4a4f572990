package cluster_test

import (
	"bytes"
	"context"
	"net"
	"testing"

	"blob/internal/core"
	"blob/internal/dht"
	"blob/internal/diskstore"
	"blob/internal/mstore"
	"blob/internal/pmanager"
	"blob/internal/provider"
	"blob/internal/rpc"
	"blob/internal/vmanager"
)

// tcpDeployment wires every service over genuine TCP loopback sockets,
// built by the role constructors cmd/blobnode uses (provider.Open,
// mstore.NewProvider, vmanager.NewReplica): a provider manager
// co-hosting the metadata directory, a one-replica version-manager
// group (what a bare `blobnode -roles vmanager` boots)
// and three storage nodes each hosting a disk-backed data provider and
// a metadata provider, so every read is served from segment mappings
// through real socket writes with PoisonOnRelease on (the netsim
// cluster tests cover RAM providers). It returns the options a client
// connects with.
func tcpDeployment(t *testing.T) core.Options {
	t.Cleanup(rpc.PoisonOnRelease(poisonByte))
	listen := func() net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		return l
	}
	start := func(l net.Listener, register func(*rpc.Server)) string {
		srv := rpc.NewServer()
		register(srv)
		srv.Start(l)
		t.Cleanup(srv.Close)
		return l.Addr().String()
	}

	pm := pmanager.New(pmanager.Config{})
	dir := dht.NewDirectory()
	pmAddr := start(listen(), func(s *rpc.Server) {
		pm.RegisterHandlers(s)
		dir.RegisterHandlers(s)
	})
	// A replica must know its shard's addresses before it boots: bind
	// first, exactly as -vpeers (or -advertise) requires of the binary.
	vmListener := listen()
	pool := rpc.NewPool(rpc.TCP{})
	t.Cleanup(pool.Close)
	rep, err := vmanager.NewReplica(vmanager.ReplicaConfig{
		Peers: []string{vmListener.Addr().String()},
		Pool:  pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	vmAddr := start(vmListener, rep.RegisterHandlers)
	for i := 0; i < 3; i++ {
		ds, err := provider.Open(diskstore.Options{Dir: t.TempDir()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() }) // after its server stops serving
		ms := mstore.NewProvider()
		addr := start(listen(), func(s *rpc.Server) {
			ds.RegisterHandlers(s)
			ms.RegisterHandlers(s)
		})
		pm.Register(addr, 0)
		dir.Register(addr)
	}
	return core.Options{
		Network:        rpc.TCP{},
		VManagerShards: [][]string{{vmAddr}},
		PManagerAddr:   pmAddr,
		MetaDirAddr:    pmAddr,
	}
}

// TestRealTCPDeployment runs a full write/read/append round trip over
// genuine TCP loopback sockets. This keeps the TCP path covered by
// `go test ./...`, not just by manual runs of the binaries.
func TestRealTCPDeployment(t *testing.T) {
	opts := tcpDeployment(t)
	ctx := context.Background()
	cached := opts
	cached.CacheNodes = -1
	client, err := core.NewClient(ctx, cached)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const page = 4 << 10
	b, err := client.CreateBlob(ctx, page, 64*page)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xA5}, 4*page)
	v, err := b.Write(ctx, data, 8*page)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*page)
	if _, err := b.Read(ctx, got, 8*page, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("TCP round trip corrupted data")
	}

	// Append and a second client.
	if _, _, err := b.Append(ctx, data[:page]); err != nil {
		t.Fatal(err)
	}
	c2, err := core.NewClient(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	b2, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	latest, size, err := b2.Latest(ctx)
	if err != nil || latest != 2 {
		t.Fatalf("latest over TCP = v%d size %d err %v", latest, size, err)
	}
	small := make([]byte, page)
	if _, err := b2.Read(ctx, small, 8*page, latest); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(small, data[:page]) {
		t.Fatal("cross-client TCP read mismatch")
	}

	// The follow descent (mstore.FollowBlock): a 64-page blob's tree has
	// 7 levels, three blocks on every path, so a cold read of it (c2
	// caches no metadata) is served blocks below the ones it asked for.
	full := bytes.Repeat([]byte{0x5A}, 64*page)
	fb, err := client.CreateBlob(ctx, page, 64*page)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := fb.Write(ctx, full, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := c2.OpenBlob(ctx, fb.ID())
	if err != nil {
		t.Fatal(err)
	}
	got = make([]byte, len(full))
	if _, err := cold.Read(ctx, got, 0, fv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("cold TCP read of the full blob mismatch")
	}
	metas, err := c2.Meta().StoreStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var served uint64
	for _, st := range metas {
		served += st.FollowServed
	}
	if served == 0 {
		t.Fatalf("metadata providers served no follow extras to a cold read: %+v", metas)
	}
}
