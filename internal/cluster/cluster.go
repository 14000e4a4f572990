// Package cluster assembles a full deployment of the system inside one
// process, over the simulated network fabric: a version manager group
// (one replica by default), a provider manager (co-hosting
// the metadata directory), N data providers and M metadata providers —
// the paper's experimental topology, where each storage node hosts one
// data provider and one metadata provider and the two managers run on
// dedicated nodes.
//
// The same role constructors run over real TCP through cmd/blobnode;
// this package is the laboratory the tests and examples use. Numbers
// are measured on real processes, by benchmark/.
package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blob/internal/core"
	"blob/internal/dht"
	"blob/internal/diskstore"
	"blob/internal/erasure"
	"blob/internal/monitor"
	"blob/internal/mstore"
	"blob/internal/netsim"
	"blob/internal/pmanager"
	"blob/internal/provider"
	"blob/internal/repair"
	"blob/internal/rpc"
	"blob/internal/trace"
	"blob/internal/vmanager"
)

// Config describes a deployment.
type Config struct {
	// DataProviders is the number of data provider processes (default 4).
	DataProviders int
	// MetaProviders is the number of metadata providers (default 4).
	// When it equals DataProviders, data provider i and metadata
	// provider i share simulated host "node<i>" and its NIC — the
	// paper's topology; otherwise each has a host of its own.
	MetaProviders int
	// Redundancy is the deployment's redundancy mode (docs/erasure.md):
	// rs(k,m) stripes every new blob over k+m distinct providers with m
	// parity pages per stripe, and rs(1, r-1) stores r copies of each
	// page. The zero value is rs(1,0), one copy. The provider manager
	// advertises the mode and every cluster client (including the
	// repair agent) adopts it. For k >= 2 it requires DataProviders >=
	// k+m.
	Redundancy erasure.Redundancy
	// MetaReplicas is the tree node replication factor (default 1).
	MetaReplicas int
	// Net is the simulated fabric configuration (latency/bandwidth);
	// zero value = instant network (0.1 ms links in a synctest build).
	Net netsim.Config
	// RepairTimeout enables dead-writer repair at the version manager.
	RepairTimeout time.Duration
	// CacheNodes is the default client metadata cache size (0 disables,
	// negative = the paper's 2^20).
	CacheNodes int
	// HeartbeatInterval, when positive, starts per-provider heartbeat
	// loops and makes the provider manager filter silent providers after
	// 4 intervals.
	HeartbeatInterval time.Duration
	// DataDir, when non-empty, makes data providers persistent: provider
	// i keeps its pages in a diskstore segment log under
	// DataDir/provider-<i> and serves them again after a restart
	// (RestartDataProvider). Empty keeps the paper's RAM-only providers.
	DataDir string
	// SegmentSize is the disk-backed providers' segment file size
	// (0 = diskstore default, 4 MiB). Ignored without DataDir.
	SegmentSize int64
	// RepairInterval, when positive, runs a background repair agent
	// (internal/repair, protocol in docs/erasure.md §5) over every blob
	// with that period, so stripes degraded by a provider crash or disk
	// loss return to full strength without client involvement.
	RepairInterval time.Duration
	// VReplicas is the replica count of the version plane's vmanager
	// group (default 1; docs/vmanager-group.md), one leader and its
	// followers. Mutations are acked by a follower quorum before
	// returning.
	VReplicas int
	// VMHeartbeat is the group leader's idle append interval (default
	// 25ms — simulation-fast).
	VMHeartbeat time.Duration
	// VMElectionTimeout is the base silence before a follower
	// campaigns (default 8*VMHeartbeat).
	VMElectionTimeout time.Duration
	// VMMaxLogRecords caps each vmanager replica's in-memory publish
	// log (0 = the replica default). Beyond the cap
	// the leader drops the older half and lagging followers catch up
	// from a checkpoint snapshot instead of log replay. Tests set it
	// low to force truncation at small scale and prove historical
	// versions stay readable afterwards (the blob state snapshots
	// carry every version's size and history; page metadata lives in
	// the DHT and is never truncated).
	VMMaxLogRecords int
	// TraceSampleEvery, when positive, makes every cluster client start
	// a trace for 1-in-N of its root operations (1 = trace everything).
	// Every simulated process records the spans of the traces that reach
	// it in its recorder's ring; TraceSpans gathers one trace across all
	// of them, like blobctl trace does over MSpans in a real deployment.
	// Zero starts no traces (the allocation-free path).
	TraceSampleEvery int
	// Monitor, when true, embeds a cluster monitor (internal/monitor)
	// polling the deployment from its own "monitor" host; Cluster.Mon
	// exposes it.
	Monitor bool
	// MonitorInterval is the embedded monitor's poll period
	// (0 = the monitor default, 1s).
	MonitorInterval time.Duration
}

func (c *Config) fillDefaults() {
	if c.DataProviders <= 0 {
		c.DataProviders = 4
	}
	if c.MetaProviders <= 0 {
		c.MetaProviders = 4
	}
	if c.MetaReplicas < 1 {
		c.MetaReplicas = 1
	}
	if c.VReplicas < 1 {
		c.VReplicas = 1
	}
	if c.VMHeartbeat <= 0 {
		c.VMHeartbeat = 25 * time.Millisecond
	}
	if c.VMElectionTimeout <= 0 {
		c.VMElectionTimeout = 8 * c.VMHeartbeat
	}
	if c.Net == (netsim.Config{}) {
		c.Net.Latency = bubbleLatency
	}
}

// bubbleLatency is the link latency of a fabric left at the zero
// netsim.Config: zero, except in a GOEXPERIMENT=synctest build
// (bubble.go).
var bubbleLatency time.Duration

// Cluster is a running deployment.
type Cluster struct {
	cfg Config
	fab *netsim.Net

	PM  *pmanager.Manager
	Dir *dht.Directory

	// VMReplicas[r] is replica r of the vmanager group; VMAddrs mirrors
	// it with the replica RPC addresses and VMServers with the
	// per-replica RPC servers (for kill injection).
	VMReplicas []*vmanager.Replica
	VMAddrs    []string
	VMServers  []*rpc.Server

	// DataStores holds each data provider's storage backend: in-RAM
	// provider.Store by default, or a provider.DiskStore when
	// Config.DataDir is set.
	DataStores []provider.PageStore
	// DataServices hosts the RPC handlers over the corresponding
	// DataStores entry.
	DataServices []*provider.Service
	MetaStores   []*dht.Store

	// DataServers and MetaServers expose the per-node RPC servers for
	// failure injection in tests (stopping one simulates a node crash).
	DataServers []*rpc.Server
	MetaServers []*rpc.Server

	PMAddr  string
	DirAddr string
	// RepairAddr serves the repair agent's recorder over MEvents
	// (set when Config.RepairInterval > 0).
	RepairAddr string

	// Mon is the embedded cluster monitor (Config.Monitor).
	Mon *monitor.Monitor

	servers   []*rpc.Server
	pools     []*rpc.Pool
	hbStop    chan struct{}
	clientSeq atomic.Int64
	// repairNow wakes the repair loop ahead of its ticker when the
	// provider manager detects a heartbeat death (capacity 1: coalesces
	// a burst of deaths into one immediate pass).
	repairNow chan struct{}
	// hbProvStop lets tests kill one provider's heartbeat loop
	// (StopProviderHeartbeat) to simulate a silent node death.
	hbProvStop []chan struct{}

	// svcMu guards the Data* slice elements against RestartDataProvider
	// racing the heartbeat loops and the aggregate accessors. Tests that
	// index the exported slices directly must not do so concurrently
	// with RestartDataProvider.
	svcMu sync.RWMutex

	// recMu guards recorders: one per simulated process, server or
	// client (a restart creates a fresh one, like a real process
	// restart).
	recMu     sync.Mutex
	recorders []*trace.Tracer
	repairRec *trace.Tracer
	// hbPool is the heartbeat loops' shared client pool, retained so
	// ResumeProviderHeartbeat can relaunch a stopped loop.
	hbPool *rpc.Pool
}

// newRecorder creates (and retains, for TraceSpans and Events) the
// recorder of the named simulated process.
func (c *Cluster) newRecorder(node string) *trace.Tracer {
	t := trace.New(node, c.cfg.TraceSampleEvery)
	c.recMu.Lock()
	c.recorders = append(c.recorders, t)
	c.recMu.Unlock()
	return t
}

// allRecorders snapshots the recorder list, dead incarnations included.
func (c *Cluster) allRecorders() []*trace.Tracer {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	return append([]*trace.Tracer(nil), c.recorders...)
}

// TraceSpans gathers every recorded span of one trace across all
// recorders — the in-process equivalent of blobctl trace querying
// MSpans on each node.
func (c *Cluster) TraceSpans(traceID uint64) []trace.Span {
	var spans []trace.Span
	for _, t := range c.allRecorders() {
		spans = append(spans, t.SpansFor(traceID)...)
	}
	return spans
}

// Events merges every recorder's events, oldest first by timestamp —
// the in-process equivalent of the monitor tailing MEvents cluster-wide.
// Restarted processes' dead incarnations are included (their events
// happened), which is exactly what a drill asserting event order wants.
func (c *Cluster) Events() []trace.Event {
	var evs []trace.Event
	for _, t := range c.allRecorders() {
		evs = append(evs, t.Events()...)
	}
	sort.SliceStable(evs, func(i, k int) bool { return evs[i].Time < evs[k].Time })
	return evs
}

// dataService returns the current RPC service of data provider i, which
// RestartDataProvider may have replaced since launch.
func (c *Cluster) dataService(i int) *provider.Service {
	c.svcMu.RLock()
	defer c.svcMu.RUnlock()
	return c.DataServices[i]
}

// hostName names the simulated host of storage role kind ("data" or
// "meta") number i: "node<i>" hosts both when the counts match.
func (c *Cluster) hostName(kind string, i int) string {
	if c.cfg.DataProviders == c.cfg.MetaProviders {
		kind = "node"
	}
	return fmt.Sprintf("%s%d", kind, i)
}

// dataDir is data provider i's directory under Config.DataDir, or ""
// for a RAM-only provider.
func (c *Cluster) dataDir(i int) string {
	if c.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(c.cfg.DataDir, fmt.Sprintf("provider-%d", i))
}

// startDataProvider opens data provider i (provider.Open) and serves it
// at "<host>:data" with a fresh recorder — at launch, and again at each
// restart, like a real process.
func (c *Cluster) startDataProvider(i int) (*provider.Service, *rpc.Server, error) {
	host := c.fab.Host(c.hostName("data", i))
	rec := c.newRecorder(host.Name() + ":data")
	svc, err := provider.Open(diskstore.Options{
		Dir:         c.dataDir(i),
		SegmentSize: c.cfg.SegmentSize,
		Tracer:      rec,
	}, 0)
	if err != nil {
		return nil, nil, err
	}
	srv, err := c.serve(host, "data", rec, svc.RegisterHandlers)
	if err != nil {
		svc.Close()
		return nil, nil, err
	}
	return svc, srv, nil
}

// vmRepairStore builds the metadata client a version manager's repair
// path writes no-op patches through, dialing from the given host. Nil
// (and no error) when dead-writer repair is disabled.
func (c *Cluster) vmRepairStore(host *netsim.Host) (vmanager.NodeStore, error) {
	if c.cfg.RepairTimeout <= 0 {
		return nil, nil
	}
	kv, err := dht.NewDirectoryClient(context.Background(), c.newPool(host), c.DirAddr, c.cfg.MetaReplicas)
	if err != nil {
		return nil, err
	}
	return mstore.New(kv, 0), nil
}

// launchVMGroup boots the version plane: VReplicas Replica processes,
// each on its own simulated host "vm-r<replica>". Peer addresses are
// deterministic, so every replica knows its group-mates up front and a
// restarted replica comes back at the same address
// (docs/vmanager-group.md).
func (c *Cluster) launchVMGroup() error {
	n := c.cfg.VReplicas
	c.VMReplicas = make([]*vmanager.Replica, n)
	c.VMServers = make([]*rpc.Server, n)
	c.VMAddrs = make([]string, n)
	for j := range c.VMAddrs {
		c.VMAddrs[j] = fmt.Sprintf("vm-r%d:rpc", j)
	}
	for j := range n {
		if err := c.startVMReplica(j, false); err != nil {
			return err
		}
	}
	return nil
}

// startVMReplica builds and serves vmanager replica j on its dedicated
// host. Used at launch (rejoin=false) and by RestartVMReplica
// (rejoin=true: the replica boots follower even at index 0).
func (c *Cluster) startVMReplica(j int, rejoin bool) error {
	host := c.fab.Host(fmt.Sprintf("vm-r%d", j))
	repairStore, err := c.vmRepairStore(host)
	if err != nil {
		return err
	}
	pool := c.newPool(host)
	// A restarted replica gets a fresh recorder, like a real process
	// restart; MEvents pollers see its new incarnation and re-tail.
	rec := c.newRecorder(host.Name() + ":rpc")
	pool.SetTracer(rec)
	rep, err := vmanager.NewReplica(vmanager.ReplicaConfig{
		Index:           j,
		Peers:           c.VMAddrs,
		Pool:            pool,
		Heartbeat:       c.cfg.VMHeartbeat,
		ElectionTimeout: c.cfg.VMElectionTimeout,
		MaxLogRecords:   c.cfg.VMMaxLogRecords,
		Rejoin:          rejoin,
		Tracer:          rec,
		Manager: vmanager.Config{
			RepairTimeout: c.cfg.RepairTimeout,
			Store:         repairStore,
		},
	})
	if err != nil {
		return err
	}
	srv, err := c.serve(host, "rpc", rec, rep.RegisterHandlers)
	if err != nil {
		rep.Close()
		return err
	}
	c.svcMu.Lock()
	c.VMReplicas[j] = rep
	c.VMServers[j] = srv
	c.svcMu.Unlock()
	return nil
}

// hostDialer adapts a netsim host to rpc.Network.
type hostDialer struct{ h *netsim.Host }

// Dial implements rpc.Network.
func (d hostDialer) Dial(addr string) (net.Conn, error) { return d.h.Dial(addr) }

// newPool opens a connection pool dialing from host; Shutdown closes it.
func (c *Cluster) newPool(host *netsim.Host) *rpc.Pool {
	pool := rpc.NewPool(hostDialer{host})
	c.svcMu.Lock()
	c.pools = append(c.pools, pool)
	c.svcMu.Unlock()
	return pool
}

// serve starts the RPC server of one simulated process at host:port,
// with its recorder attached; Shutdown closes it.
func (c *Cluster) serve(host *netsim.Host, port string, rec *trace.Tracer, register func(*rpc.Server)) (*rpc.Server, error) {
	srv := rpc.NewServer()
	srv.SetTracer(rec)
	register(srv)
	l, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	srv.Start(l)
	c.svcMu.Lock()
	c.servers = append(c.servers, srv)
	c.svcMu.Unlock()
	return srv, nil
}

// Launch starts a deployment.
func Launch(cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	if err := cfg.Redundancy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Redundancy.K > 1 && cfg.DataProviders < cfg.Redundancy.Shards() {
		return nil, fmt.Errorf("cluster: %s needs at least %d data providers, config has %d",
			cfg.Redundancy, cfg.Redundancy.Shards(), cfg.DataProviders)
	}
	c := &Cluster{
		cfg:       cfg,
		fab:       netsim.New(cfg.Net),
		hbStop:    make(chan struct{}),
		repairNow: make(chan struct{}, 1),
	}

	// Provider manager + metadata directory share the "pm" node.
	var hbTimeout time.Duration
	if cfg.HeartbeatInterval > 0 {
		hbTimeout = 4 * cfg.HeartbeatInterval
	}
	recPM := c.newRecorder("pm:rpc")
	c.PM = pmanager.New(pmanager.Config{
		HeartbeatTimeout: hbTimeout,
		Redundancy:       cfg.Redundancy,
		Tracer:           recPM,
	})
	c.Dir = dht.NewDirectory()
	if _, err := c.serve(c.fab.Host("pm"), "rpc", recPM, func(s *rpc.Server) {
		c.PM.RegisterHandlers(s)
		c.Dir.RegisterHandlers(s)
	}); err != nil {
		c.Shutdown()
		return nil, err
	}
	c.PMAddr, c.DirAddr = "pm:rpc", "pm:rpc"

	// Storage nodes.
	for i := 0; i < cfg.DataProviders; i++ {
		svc, srv, err := c.startDataProvider(i)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.DataStores = append(c.DataStores, svc.Store())
		c.DataServices = append(c.DataServices, svc)
		c.DataServers = append(c.DataServers, srv)
		c.PM.Register(c.dataAddr(i), 0)
	}
	for i := 0; i < cfg.MetaProviders; i++ {
		st := mstore.NewProvider()
		c.MetaStores = append(c.MetaStores, st)
		host := c.fab.Host(c.hostName("meta", i))
		addr := host.Name() + ":meta"
		srv, err := c.serve(host, "meta", c.newRecorder(addr), st.RegisterHandlers)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.Dir.Register(addr)
		c.MetaServers = append(c.MetaServers, srv)
	}

	// Version plane: VReplicas Replica processes on their own nodes,
	// each with its own repair-path metadata client.
	if err := c.launchVMGroup(); err != nil {
		c.Shutdown()
		return nil, err
	}

	if cfg.HeartbeatInterval > 0 {
		c.startHeartbeats()
	}
	if cfg.RepairInterval > 0 {
		// The repair agent is a client-side process with no RPC service
		// of its own; give its recorder a dedicated node so the monitor
		// can tail sweep events like any other node's.
		c.RepairAddr = "repair:rpc"
		c.repairRec = c.newRecorder(c.RepairAddr)
		if _, err := c.serve(c.fab.Host("repair"), "rpc", c.repairRec, func(*rpc.Server) {}); err != nil {
			c.Shutdown()
			return nil, err
		}
		client, err := core.NewClient(context.Background(), c.ClientOptions("repair-agent"))
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		agent := repair.New(client)
		agent.Tracer = c.repairRec
		go func() {
			agent.Run(c.hbStop, c.repairNow, cfg.RepairInterval)
			client.Close()
		}()
		if cfg.HeartbeatInterval > 0 {
			// Heartbeat-death detection triggers an immediate repair
			// pass instead of waiting out the RepairInterval timer.
			go c.PM.DeathWatch(c.hbStop, func(uint32) {
				select {
				case c.repairNow <- struct{}{}:
				default:
				}
			})
		}
	}
	if cfg.Monitor {
		var eventNodes []string
		if c.RepairAddr != "" {
			eventNodes = append(eventNodes, c.RepairAddr)
		}
		c.Mon = monitor.New(monitor.Config{
			Pool:       c.newPool(c.fab.Host("monitor")),
			PMAddr:     c.PMAddr,
			VMReplicas: c.VMAddrs,
			EventNodes: eventNodes,
			Interval:   cfg.MonitorInterval,
		})
		c.Mon.Start()
	}
	return c, nil
}

// StopProviderHeartbeat kills data provider i's heartbeat loop — the
// fault-injection hook for "the node silently died": the provider
// manager stops hearing from it, excludes it from placement, and (when
// a repair loop is armed) DeathWatch triggers an immediate repair pass.
// A no-op without Config.HeartbeatInterval; ResumeProviderHeartbeat
// brings the loop back.
func (c *Cluster) StopProviderHeartbeat(i int) {
	c.svcMu.Lock()
	defer c.svcMu.Unlock()
	if i >= 0 && i < len(c.hbProvStop) {
		closeOnce(c.hbProvStop[i])
	}
}

// ResumeProviderHeartbeat relaunches data provider i's heartbeat loop
// after StopProviderHeartbeat — the "node came back" half of a silent
// death drill. The manager re-admits the provider on its next beat
// (same id, bumped epoch). A no-op if the loop is still running or the
// cluster is shut down.
func (c *Cluster) ResumeProviderHeartbeat(i int) {
	c.svcMu.Lock()
	defer c.svcMu.Unlock()
	if i < 0 || i >= len(c.hbProvStop) || isClosed(c.hbStop) || !isClosed(c.hbProvStop[i]) {
		return
	}
	c.hbProvStop[i] = c.heartbeat(i)
}

// startHeartbeats runs one heartbeat loop per data provider, all sending
// from the "hb" host: a provider whose own links are injured keeps
// heartbeating (faults.go), as a gray failure does.
func (c *Cluster) startHeartbeats() {
	c.hbPool = c.newPool(c.fab.Host("hb"))
	for i := range c.DataServices {
		c.hbProvStop = append(c.hbProvStop, c.heartbeat(i))
	}
}

// heartbeat starts data provider i's pmanager.HeartbeatLoop and returns
// its stop channel. Each beat reports the live service, which
// RestartDataProvider may have swapped; ids follow registration order.
func (c *Cluster) heartbeat(i int) chan struct{} {
	stop := make(chan struct{})
	go pmanager.HeartbeatLoop(stop, c.hbPool, c.PMAddr, uint32(i+1), c.cfg.HeartbeatInterval,
		func() *provider.Service { return c.dataService(i) }, nil)
	return stop
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func closeOnce(ch chan struct{}) {
	if !isClosed(ch) {
		close(ch)
	}
}

// ClientOptions returns core.Options for a client on the named simulated
// host (each client host has its own NIC, like the paper's client nodes).
func (c *Cluster) ClientOptions(hostName string) core.Options {
	return core.Options{
		Network:        hostDialer{c.fab.Host(hostName)},
		VManagerShards: [][]string{c.VMAddrs},
		PManagerAddr:   c.PMAddr,
		MetaDirAddr:    c.DirAddr,
		Redundancy:     c.cfg.Redundancy,
		MetaReplicas:   c.cfg.MetaReplicas,
		CacheNodes:     c.cfg.CacheNodes,
		Tracer:         c.newRecorder(hostName),
	}
}

// NewClient connects a client on a fresh simulated host.
func (c *Cluster) NewClient(ctx context.Context) (*core.Client, error) {
	seq := c.clientSeq.Add(1)
	return core.NewClient(ctx, c.ClientOptions(fmt.Sprintf("client%d", seq)))
}

// NewClientAt connects a client on a specific simulated host.
func (c *Cluster) NewClientAt(ctx context.Context, host string) (*core.Client, error) {
	return core.NewClient(ctx, c.ClientOptions(host))
}

// TotalDataPages sums the page counts across data providers.
func (c *Cluster) TotalDataPages() int64 {
	c.svcMu.RLock()
	stores := append([]provider.PageStore(nil), c.DataStores...)
	c.svcMu.RUnlock()
	var n int64
	for _, st := range stores {
		n += st.Snapshot().PageCount
	}
	return n
}

// TotalMetaBlocks sums the stored metadata values — packed blocks of
// tree nodes — across metadata providers.
func (c *Cluster) TotalMetaBlocks() int {
	n := 0
	for _, st := range c.MetaStores {
		n += st.Len()
	}
	return n
}

// RestartDataProvider simulates a crash-and-relaunch of data provider i:
// its RPC server stops, its store closes (for a disk-backed provider
// this is where durability matters — a RAM provider comes back empty),
// and a fresh store is opened over the same data directory and served at
// the same address, so placements recorded in the metadata remain valid.
func (c *Cluster) RestartDataProvider(i int) error {
	return c.restartDataProvider(i, false)
}

// WipeDataProvider restarts data provider i with its data directory
// destroyed first — the total-disk-loss scenario the repair protocol
// exists for. The provider comes back empty at the same address; the
// repair agent (or read-repair) must restore its slots. For a
// RAM-only provider this is identical to RestartDataProvider.
func (c *Cluster) WipeDataProvider(i int) error {
	return c.restartDataProvider(i, true)
}

func (c *Cluster) restartDataProvider(i int, wipe bool) error {
	if i < 0 || i >= len(c.DataServices) {
		return fmt.Errorf("cluster: no data provider %d", i)
	}
	c.svcMu.RLock()
	oldSrv, oldSvc := c.DataServers[i], c.DataServices[i]
	c.svcMu.RUnlock()
	oldSrv.Close()
	if err := oldSvc.Close(); err != nil {
		return fmt.Errorf("cluster: close provider %d store: %w", i, err)
	}
	if dir := c.dataDir(i); wipe && dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return fmt.Errorf("cluster: wipe provider %d data dir: %w", i, err)
		}
	}
	svc, srv, err := c.startDataProvider(i)
	if err != nil {
		return fmt.Errorf("cluster: restart provider %d: %w", i, err)
	}
	c.svcMu.Lock()
	c.DataStores[i] = svc.Store()
	c.DataServices[i] = svc
	c.DataServers[i] = srv
	c.svcMu.Unlock()
	return nil
}

// Shutdown stops every service and the fabric, closing any persistent
// data stores.
func (c *Cluster) Shutdown() {
	if c.Mon != nil {
		c.Mon.Close()
	}
	c.svcMu.Lock()
	closeOnce(c.hbStop)
	for _, stop := range c.hbProvStop {
		closeOnce(stop)
	}
	replicas := append([]*vmanager.Replica(nil), c.VMReplicas...)
	c.svcMu.Unlock()
	for _, rep := range replicas {
		if rep != nil {
			rep.Close()
		}
	}
	c.svcMu.RLock()
	pools := append([]*rpc.Pool(nil), c.pools...)
	servers := append([]*rpc.Server(nil), c.servers...)
	services := append([]*provider.Service(nil), c.DataServices...)
	c.svcMu.RUnlock()
	for _, p := range pools {
		p.Close()
	}
	for _, s := range servers {
		s.Close()
	}
	for _, svc := range services {
		svc.Close()
	}
	c.fab.Close()
}
