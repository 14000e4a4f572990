// Package cluster assembles a full deployment of the system inside one
// process, over the simulated network fabric: a version manager group
// (one shard of one replica by default), a provider manager (co-hosting
// the metadata directory), N data providers and M metadata providers —
// the paper's experimental topology, where each storage node hosts one
// data provider and one metadata provider and the two managers run on
// dedicated nodes.
//
// The same service implementations run over real TCP through
// cmd/blobnode; this package is the laboratory the tests and examples
// use. Numbers are measured on real processes, by benchmark/.
package cluster

import (
	"context"
	"fmt"
	"io"
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
	"blob/internal/events"
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
	MetaProviders int
	// CoLocate places data provider i and metadata provider i on the same
	// simulated host, sharing its NIC — the paper's topology (default
	// true when DataProviders == MetaProviders).
	CoLocate bool
	// DataReplicas is the page replication factor (default 1). Ignored
	// when Redundancy selects erasure coding.
	DataReplicas int
	// Redundancy is the deployment's redundancy mode (docs/erasure.md):
	// the zero value keeps full replication at DataReplicas copies;
	// rs(k,m) stripes every new blob over k+m distinct providers with m
	// parity pages per stripe. The provider manager advertises the mode
	// and every cluster client (including the repair agent) adopts it.
	// Requires DataProviders >= k+m.
	Redundancy erasure.Redundancy
	// MetaReplicas is the tree node replication factor (default 1).
	MetaReplicas int
	// Net is the simulated fabric configuration (latency/bandwidth);
	// zero value = instant network.
	Net netsim.Config
	// ProviderCapacity bounds each data provider's RAM (0 = unlimited).
	ProviderCapacity int64
	// Strategy is the page placement policy.
	Strategy pmanager.Strategy
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
	// RepairInterval, when positive, runs a background replica-repair
	// agent (internal/repair, protocol in docs/replication.md) over every
	// blob with that period, so a replica set degraded by a provider
	// crash or disk loss returns to full strength without client
	// involvement. Provider-to-provider pulls are always served
	// regardless; the interval only drives the in-process agent.
	RepairInterval time.Duration
	// VShards is the number of version-manager shards (default 1) of the
	// vmanager group (docs/vmanager-group.md): blob ids place onto
	// shards by ring hash, and each shard is a leader + followers
	// replica set.
	VShards int
	// VReplicas is the replica count per vmanager shard (default 1).
	// Mutations are acked by a follower quorum before returning.
	VReplicas int
	// VMHeartbeat is the shard leaders' idle append interval (default
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
	// TraceSampleEvery, when positive, arms every node role and every
	// cluster client with a span tracer sampling 1-in-N root operations
	// (1 = trace everything). Spans land in per-process ring buffers;
	// TraceSpans gathers one trace across all of them, like blobctl
	// trace does over MSpans in a real deployment. Zero disables
	// tracing entirely (the allocation-free path).
	TraceSampleEvery int
	// Breakers arms per-peer circuit breakers (rpc.BreakerConfig
	// defaults) on every cluster client's connection pool; breaker
	// transitions land in the client's event journal and surface
	// through Events and the monitor.
	Breakers bool
	// DisableHedging turns off clients' hedged reads (on by default;
	// see core.Options.DisableHedging).
	DisableHedging bool
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
	if c.DataReplicas < 1 {
		c.DataReplicas = 1
	}
	if c.MetaReplicas < 1 {
		c.MetaReplicas = 1
	}
	if c.VShards < 1 {
		c.VShards = 1
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
}

// Cluster is a running deployment.
type Cluster struct {
	cfg Config
	fab *netsim.Net

	PM  *pmanager.Manager
	Dir *dht.Directory

	// VMReplicas[s][r] is replica r of vmanager shard s; VMShardAddrs
	// mirrors it with the replica RPC addresses and VMServers with the
	// per-replica RPC servers (for kill injection).
	VMReplicas   [][]*vmanager.Replica
	VMShardAddrs [][]string
	VMServers    [][]*rpc.Server

	// DataStores holds each data provider's storage backend: in-RAM
	// provider.Store by default, or a disk-backed (optionally cached)
	// stack when Config.DataDir is set.
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
	// RepairAddr serves the repair agent's event journal over MEvents
	// (set when Config.RepairInterval > 0).
	RepairAddr string

	// Mon is the embedded cluster monitor (Config.Monitor).
	Mon *monitor.Monitor

	dataHosts []string
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

	// traceMu guards tracers: one per node role and per client, created
	// lazily when Config.TraceSampleEvery is set.
	traceMu sync.Mutex
	tracers []*trace.Tracer

	// journalMu guards journals: one event journal per simulated node
	// (restart creates a fresh one, like a real process restart).
	journalMu     sync.Mutex
	journals      []*events.Journal
	repairJournal *events.Journal
	// hbPool is the heartbeat loops' shared client pool, retained so
	// ResumeProviderHeartbeat can relaunch a stopped loop.
	hbPool *rpc.Pool
}

// newTracer creates (and retains, for TraceSpans) a span tracer for the
// named node, or returns nil when tracing is disabled.
func (c *Cluster) newTracer(node string) *trace.Tracer {
	if c.cfg.TraceSampleEvery <= 0 {
		return nil
	}
	t := trace.New(node, trace.DefaultRing, c.cfg.TraceSampleEvery)
	c.traceMu.Lock()
	c.tracers = append(c.tracers, t)
	c.traceMu.Unlock()
	return t
}

// TraceSpans gathers every recorded span of one trace across all node
// and client ring buffers — the in-process equivalent of blobctl trace
// querying MSpans on each node.
func (c *Cluster) TraceSpans(traceID uint64) []trace.Span {
	c.traceMu.Lock()
	tracers := append([]*trace.Tracer(nil), c.tracers...)
	c.traceMu.Unlock()
	var spans []trace.Span
	for _, t := range tracers {
		spans = append(spans, t.SpansFor(traceID)...)
	}
	return spans
}

// newJournal creates (and retains, for Events) the event journal of the
// named simulated node.
func (c *Cluster) newJournal(node string) *events.Journal {
	j := events.NewJournal(node, 0)
	c.journalMu.Lock()
	c.journals = append(c.journals, j)
	c.journalMu.Unlock()
	return j
}

// Events merges every live node journal, oldest first by timestamp —
// the in-process equivalent of the monitor tailing MEvents cluster-wide.
// Journals of restarted nodes' dead incarnations are included (their
// events happened), which is exactly what a drill asserting event order
// wants.
func (c *Cluster) Events() []events.Event {
	c.journalMu.Lock()
	journals := append([]*events.Journal(nil), c.journals...)
	c.journalMu.Unlock()
	var evs []events.Event
	for _, j := range journals {
		evs = append(evs, j.Events()...)
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

// dataHostName names the simulated host of data provider i.
func (c *Cluster) dataHostName(i int) string {
	if c.cfg.CoLocate || (c.cfg.DataProviders == c.cfg.MetaProviders) {
		return fmt.Sprintf("node%d", i)
	}
	return fmt.Sprintf("data%d", i)
}

// newDataService hosts a provider service over st with repair armed:
// the service gets a connection pool dialing from its own host (the
// vantage MPullPages pulls peers from), pulls unthrottled.
func (c *Cluster) newDataService(i int, st provider.PageStore, j *events.Journal) *provider.Service {
	svc := provider.NewService(st)
	pool := rpc.NewPool(hostDialer{c.fab.Host(c.dataHostName(i))})
	pool.SetJournal(j)
	c.svcMu.Lock()
	c.pools = append(c.pools, pool)
	c.svcMu.Unlock()
	svc.EnableRepair(pool, 0)
	return svc
}

// newDataStore builds data provider i's storage backend from the
// deployment config: RAM-only by default, or a disk-backed segment log
// under Config.DataDir.
func (c *Cluster) newDataStore(i int, j *events.Journal) (provider.PageStore, error) {
	if c.cfg.DataDir == "" {
		return provider.NewStore(c.cfg.ProviderCapacity), nil
	}
	ds, err := provider.NewDiskStore(diskstore.Options{
		Dir:         filepath.Join(c.cfg.DataDir, fmt.Sprintf("provider-%d", i)),
		SegmentSize: c.cfg.SegmentSize,
		Journal:     j,
	}, c.cfg.ProviderCapacity)
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// vmRepairStore builds the metadata client a version manager's repair
// path writes no-op patches through, dialing from the given host. Nil
// (and no error) when dead-writer repair is disabled.
func (c *Cluster) vmRepairStore(host *netsim.Host) (vmanager.NodeStore, error) {
	if c.cfg.RepairTimeout <= 0 {
		return nil, nil
	}
	pool := rpc.NewPool(hostDialer{host})
	c.svcMu.Lock()
	c.pools = append(c.pools, pool)
	c.svcMu.Unlock()
	kv, err := dht.NewDirectoryClient(context.Background(), pool, c.DirAddr, c.cfg.MetaReplicas)
	if err != nil {
		return nil, err
	}
	return mstore.New(kv, 0), nil
}

// launchVMGroup boots the version plane: VShards x
// VReplicas Replica processes, each on its own simulated host
// "vm-s<shard>r<replica>". Peer addresses are deterministic functions of
// the shard layout, so every replica knows its shard-mates up front and
// a restarted replica comes back at the same address
// (docs/vmanager-group.md).
func (c *Cluster) launchVMGroup() error {
	c.VMReplicas = make([][]*vmanager.Replica, c.cfg.VShards)
	c.VMShardAddrs = make([][]string, c.cfg.VShards)
	c.VMServers = make([][]*rpc.Server, c.cfg.VShards)
	for s := 0; s < c.cfg.VShards; s++ {
		peers := make([]string, c.cfg.VReplicas)
		for j := range peers {
			peers[j] = fmt.Sprintf("vm-s%dr%d:rpc", s, j)
		}
		c.VMShardAddrs[s] = peers
		c.VMReplicas[s] = make([]*vmanager.Replica, c.cfg.VReplicas)
		c.VMServers[s] = make([]*rpc.Server, c.cfg.VReplicas)
		for j := 0; j < c.cfg.VReplicas; j++ {
			if err := c.startVMReplica(s, j, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// startVMReplica builds and serves replica j of vmanager shard s on its
// dedicated host. Used at launch (rejoin=false) and by RestartVMReplica
// (rejoin=true: the replica boots follower even at index 0).
func (c *Cluster) startVMReplica(s, j int, rejoin bool) error {
	host := c.fab.Host(fmt.Sprintf("vm-s%dr%d", s, j))
	repairStore, err := c.vmRepairStore(host)
	if err != nil {
		return err
	}
	pool := rpc.NewPool(hostDialer{host})
	c.svcMu.Lock()
	c.pools = append(c.pools, pool)
	c.svcMu.Unlock()
	// A restarted replica gets a fresh journal, like a real process
	// restart; MEvents pollers detect the sequence reset and re-tail.
	jn := c.newJournal(host.Name())
	pool.SetJournal(jn)
	rep, err := vmanager.NewReplica(vmanager.ReplicaConfig{
		Shard:           s,
		Shards:          c.cfg.VShards,
		Index:           j,
		Peers:           c.VMShardAddrs[s],
		Pool:            pool,
		Heartbeat:       c.cfg.VMHeartbeat,
		ElectionTimeout: c.cfg.VMElectionTimeout,
		MaxLogRecords:   c.cfg.VMMaxLogRecords,
		Rejoin:          rejoin,
		Journal:         jn,
		Manager: vmanager.Config{
			RepairTimeout: c.cfg.RepairTimeout,
			Store:         repairStore,
		},
	})
	if err != nil {
		return err
	}
	srv := rpc.NewServer()
	if t := c.newTracer(host.Name() + ":rpc"); t != nil {
		srv.SetTracer(t)
	}
	srv.SetJournal(jn)
	rep.RegisterHandlers(srv)
	l, err := host.Listen("rpc")
	if err != nil {
		rep.Close()
		return err
	}
	srv.Start(l)
	c.svcMu.Lock()
	c.servers = append(c.servers, srv)
	c.VMReplicas[s][j] = rep
	c.VMServers[s][j] = srv
	c.svcMu.Unlock()
	return nil
}

// hostDialer adapts a netsim host to rpc.Network.
type hostDialer struct{ h *netsim.Host }

// Dial implements rpc.Network.
func (d hostDialer) Dial(addr string) (net.Conn, error) { return d.h.Dial(addr) }

// Launch starts a deployment.
func Launch(cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	if err := cfg.Redundancy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Redundancy.IsRS() && cfg.DataProviders < cfg.Redundancy.Shards() {
		return nil, fmt.Errorf("cluster: %s needs at least %d data providers, config has %d",
			cfg.Redundancy, cfg.Redundancy.Shards(), cfg.DataProviders)
	}
	c := &Cluster{
		cfg:       cfg,
		fab:       netsim.New(cfg.Net),
		hbStop:    make(chan struct{}),
		repairNow: make(chan struct{}, 1),
	}

	var lastServer *rpc.Server
	serve := func(host *netsim.Host, port string, register func(*rpc.Server)) (string, error) {
		srv := rpc.NewServer()
		if t := c.newTracer(host.Name() + ":" + port); t != nil {
			srv.SetTracer(t)
		}
		register(srv)
		l, err := host.Listen(port)
		if err != nil {
			return "", err
		}
		srv.Start(l)
		c.servers = append(c.servers, srv)
		lastServer = srv
		return host.Name() + ":" + port, nil
	}

	// Provider manager + metadata directory share the "pm" node.
	var hbTimeout time.Duration
	if cfg.HeartbeatInterval > 0 {
		hbTimeout = 4 * cfg.HeartbeatInterval
	}
	jPM := c.newJournal("pm")
	c.PM = pmanager.New(pmanager.Config{
		Strategy:         cfg.Strategy,
		HeartbeatTimeout: hbTimeout,
		Replicas:         cfg.DataReplicas,
		Redundancy:       cfg.Redundancy,
		Journal:          jPM,
	})
	c.Dir = dht.NewDirectory()
	pmHost := c.fab.Host("pm")
	addr, err := serve(pmHost, "rpc", func(s *rpc.Server) {
		c.PM.RegisterHandlers(s)
		c.Dir.RegisterHandlers(s)
		s.SetJournal(jPM)
	})
	if err != nil {
		c.Shutdown()
		return nil, err
	}
	c.PMAddr, c.DirAddr = addr, addr

	// Storage nodes.
	dataHost := c.dataHostName
	metaHost := func(i int) string {
		if cfg.CoLocate || (cfg.DataProviders == cfg.MetaProviders) {
			return fmt.Sprintf("node%d", i)
		}
		return fmt.Sprintf("meta%d", i)
	}
	for i := 0; i < cfg.DataProviders; i++ {
		j := c.newJournal(dataHost(i))
		st, err := c.newDataStore(i, j)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		svc := c.newDataService(i, st, j)
		c.DataStores = append(c.DataStores, st)
		c.DataServices = append(c.DataServices, svc)
		c.dataHosts = append(c.dataHosts, dataHost(i))
		addr, err := serve(c.fab.Host(dataHost(i)), "data", func(s *rpc.Server) {
			svc.RegisterHandlers(s)
			s.SetJournal(j)
		})
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.PM.Register(addr, cfg.ProviderCapacity)
		c.DataServers = append(c.DataServers, lastServer)
	}
	for i := 0; i < cfg.MetaProviders; i++ {
		st := dht.NewStore()
		st.Follow = mstore.FollowBlock
		c.MetaStores = append(c.MetaStores, st)
		addr, err := serve(c.fab.Host(metaHost(i)), "meta", st.RegisterHandlers)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.Dir.Register(addr)
		c.MetaServers = append(c.MetaServers, lastServer)
	}

	// Version plane: VShards x VReplicas Replica processes on their own
	// nodes, each with its own repair-path metadata client.
	if err := c.launchVMGroup(); err != nil {
		c.Shutdown()
		return nil, err
	}

	if cfg.HeartbeatInterval > 0 {
		c.startHeartbeats()
	}
	if cfg.RepairInterval > 0 {
		// The repair agent is a client-side process with no RPC service
		// of its own; give its journal a dedicated node so the monitor
		// can tail sweep events like any other node's.
		c.repairJournal = c.newJournal("repair")
		c.RepairAddr, err = serve(c.fab.Host("repair"), "rpc", func(s *rpc.Server) {
			s.SetJournal(c.repairJournal)
		})
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		go c.repairLoop()
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
		mpool := rpc.NewPool(hostDialer{c.fab.Host("monitor")})
		c.pools = append(c.pools, mpool)
		var eventNodes []string
		if c.RepairAddr != "" {
			eventNodes = append(eventNodes, c.RepairAddr)
		}
		c.Mon = monitor.New(monitor.Config{
			Pool:       mpool,
			PMAddr:     c.PMAddr,
			VMShards:   c.VMShardAddrs,
			EventNodes: eventNodes,
			Interval:   cfg.MonitorInterval,
		})
		c.Mon.Start()
	}
	return c, nil
}

// repairLoop periodically runs the replica repair agent over every blob
// the version manager knows, so redundancy degraded by provider crashes
// or disk loss converges back to full without client involvement.
func (c *Cluster) repairLoop() {
	t := time.NewTicker(c.cfg.RepairInterval)
	defer t.Stop()
	var client *core.Client
	var agent *repair.Repairer
	defer func() {
		if client != nil {
			client.Close()
		}
	}()
	timeout := 4 * c.cfg.RepairInterval
	if timeout < 30*time.Second {
		timeout = 30 * time.Second
	}
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
		case <-c.repairNow:
			// Provider-manager death detection: repair immediately
			// rather than letting the degradation window run out the
			// ticker (a second loss inside that window is the data-loss
			// scenario repair exists to shrink).
		}
		if agent == nil {
			cl, err := core.NewClient(context.Background(), c.ClientOptions("repair-agent"))
			if err != nil {
				continue // managers not reachable yet; retry next tick
			}
			client, agent = cl, repair.New(cl)
			agent.Journal = c.repairJournal
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		if blobs, err := client.VersionManager().Blobs(ctx); err == nil {
			_, _ = agent.RepairAll(ctx, blobs)
		}
		cancel()
	}
}

// StopProviderHeartbeat kills data provider i's heartbeat loop — the
// fault-injection hook for "the node silently died": the provider
// manager stops hearing from it, excludes it from placement, and (when
// a repair loop is armed) DeathWatch triggers an immediate repair pass.
// A no-op without Config.HeartbeatInterval; ResumeProviderHeartbeat
// brings the loop back.
func (c *Cluster) StopProviderHeartbeat(i int) {
	c.svcMu.RLock()
	defer c.svcMu.RUnlock()
	if i >= 0 && i < len(c.hbProvStop) {
		select {
		case <-c.hbProvStop[i]:
		default:
			close(c.hbProvStop[i])
		}
	}
}

// ResumeProviderHeartbeat relaunches data provider i's heartbeat loop
// after StopProviderHeartbeat — the "node came back" half of a silent
// death drill. The manager re-admits the provider on its next beat
// (same id, bumped epoch). A no-op if the loop is still running.
func (c *Cluster) ResumeProviderHeartbeat(i int) {
	c.svcMu.Lock()
	defer c.svcMu.Unlock()
	if i < 0 || i >= len(c.hbProvStop) {
		return
	}
	select {
	case <-c.hbProvStop[i]:
		// Closed: the loop exited. Swap in a fresh stop channel and
		// restart the loop against it.
		stop := make(chan struct{})
		c.hbProvStop[i] = stop
		go c.providerHeartbeatLoop(i, stop)
	default:
		// Still running; nothing to resume.
	}
}

// startHeartbeats runs one reporting loop per data provider.
func (c *Cluster) startHeartbeats() {
	c.hbPool = rpc.NewPool(hostDialer{c.fab.Host("hb")})
	c.pools = append(c.pools, c.hbPool)
	for i := range c.DataServices {
		stop := make(chan struct{})
		c.hbProvStop = append(c.hbProvStop, stop)
		go c.providerHeartbeatLoop(i, stop)
	}
}

// providerHeartbeatLoop reports data provider i's load to the provider
// manager every HeartbeatInterval until stop (or cluster shutdown).
func (c *Cluster) providerHeartbeatLoop(i int, stop chan struct{}) {
	id := uint32(i + 1) // registration order matches IDs
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	// Digest piggyback state: the bloom digest is recomputed
	// only when the store's write/delete counters move, and its
	// bytes ride a heartbeat only while the manager's held hash
	// disagrees — steady state costs 8 extra bytes per beat.
	var digHash uint64
	var digest []byte
	var held uint64
	lastPuts, lastPages := int64(-1), int64(-1)
	for {
		select {
		case <-c.hbStop:
			return
		case <-stop:
			return
		case <-t.C:
			// Re-resolve each tick: RestartDataProvider swaps
			// the service, and heartbeats must report the live
			// store's load, not the dead one's.
			sv := c.dataService(i)
			snap := sv.Snapshot()
			if snap.Puts != lastPuts || snap.PageCount != lastPages {
				digHash, digest = sv.DigestBytes()
				lastPuts, lastPages = snap.Puts, snap.PageCount
			}
			var payload []byte
			if digHash != 0 && digHash != held {
				payload = digest
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			if h, err := pmanager.SendHeartbeatDigest(ctx, c.hbPool, c.PMAddr, id,
				snap.BytesUsed, snap.ActiveOps, digHash, payload); err == nil {
				held = h
			}
			cancel()
		}
	}
}

// ClientOptions returns core.Options for a client on the named simulated
// host (each client host has its own NIC, like the paper's client nodes).
func (c *Cluster) ClientOptions(hostName string) core.Options {
	return core.Options{
		Network:        hostDialer{c.fab.Host(hostName)},
		VManagerShards: c.VMShardAddrs,
		PManagerAddr:   c.PMAddr,
		MetaDirAddr:    c.DirAddr,
		DataReplicas:   c.cfg.DataReplicas,
		Redundancy:     c.cfg.Redundancy,
		MetaReplicas:   c.cfg.MetaReplicas,
		CacheNodes:     c.cfg.CacheNodes,
		DisableHedging: c.cfg.DisableHedging,
		Breakers:       c.cfg.Breakers,
		Journal:        c.newJournal(hostName),
		Tracer:         c.newTracer(hostName),
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
// The fresh service starts with zeroed repair counters: post-restart
// stats report only the new incarnation's repair work.
func (c *Cluster) RestartDataProvider(i int) error {
	return c.restartDataProvider(i, false)
}

// WipeDataProvider restarts data provider i with its data directory
// destroyed first — the total-disk-loss scenario the repair protocol
// exists for. The provider comes back empty at the same address; the
// repair agent (or read-repair) must restore its replicas. For a
// RAM-only provider this is identical to RestartDataProvider.
func (c *Cluster) WipeDataProvider(i int) error {
	return c.restartDataProvider(i, true)
}

func (c *Cluster) restartDataProvider(i int, wipe bool) error {
	if i < 0 || i >= len(c.DataStores) {
		return fmt.Errorf("cluster: no data provider %d", i)
	}
	c.svcMu.RLock()
	oldSrv, oldStore := c.DataServers[i], c.DataStores[i]
	c.svcMu.RUnlock()
	oldSrv.Close()
	if cl, ok := oldStore.(io.Closer); ok {
		if err := cl.Close(); err != nil {
			return fmt.Errorf("cluster: close provider %d store: %w", i, err)
		}
	}
	if wipe && c.cfg.DataDir != "" {
		dir := filepath.Join(c.cfg.DataDir, fmt.Sprintf("provider-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return fmt.Errorf("cluster: wipe provider %d data dir: %w", i, err)
		}
	}
	// The new incarnation gets a fresh journal, like a real process
	// restart; MEvents pollers detect the sequence reset and re-tail.
	jn := c.newJournal(c.dataHosts[i])
	st, err := c.newDataStore(i, jn)
	if err != nil {
		return fmt.Errorf("cluster: reopen provider %d store: %w", i, err)
	}
	svc := c.newDataService(i, st, jn)
	srv := rpc.NewServer()
	if t := c.newTracer(c.dataHosts[i] + ":data"); t != nil {
		srv.SetTracer(t)
	}
	srv.SetJournal(jn)
	svc.RegisterHandlers(srv)
	l, err := c.fab.Host(c.dataHosts[i]).Listen("data")
	if err != nil {
		return fmt.Errorf("cluster: relisten provider %d: %w", i, err)
	}
	srv.Start(l)
	c.svcMu.Lock()
	c.DataStores[i] = st
	c.DataServices[i] = svc
	c.DataServers[i] = srv
	c.servers = append(c.servers, srv)
	c.svcMu.Unlock()
	return nil
}

// Shutdown stops every service and the fabric, closing any persistent
// data stores.
func (c *Cluster) Shutdown() {
	if c.Mon != nil {
		c.Mon.Close()
	}
	select {
	case <-c.hbStop:
	default:
		close(c.hbStop)
	}
	c.svcMu.RLock()
	replicas := append([][]*vmanager.Replica(nil), c.VMReplicas...)
	c.svcMu.RUnlock()
	for _, shard := range replicas {
		for _, rep := range shard {
			if rep != nil {
				rep.Close()
			}
		}
	}
	c.svcMu.RLock()
	pools := append([]*rpc.Pool(nil), c.pools...)
	servers := append([]*rpc.Server(nil), c.servers...)
	stores := append([]provider.PageStore(nil), c.DataStores...)
	c.svcMu.RUnlock()
	for _, p := range pools {
		p.Close()
	}
	for _, s := range servers {
		s.Close()
	}
	for _, st := range stores {
		if cl, ok := st.(io.Closer); ok {
			cl.Close()
		}
	}
	c.fab.Close()
}
