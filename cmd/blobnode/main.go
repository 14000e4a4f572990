// Command blobnode runs one node of a real (TCP) deployment of the
// service. The same process can host any combination of roles, so the
// paper's topology — a version manager node, a provider manager node and
// N storage nodes each hosting one data provider and one metadata
// provider — maps onto:
//
//	# managers (provider manager co-hosts the metadata directory). The
//	# version plane is one replica group (docs/vmanager-group.md); a
//	# bare vmanager role is its smallest form, one RAM-only replica
//	# that restarts empty.
//	blobnode -listen :4000 -roles pmanager
//	blobnode -listen :4001 -advertise host1:4001 -roles vmanager -pm host0:4000
//
//	# optional repair agent (docs/erasure.md §5)
//	blobnode -listen :4002 -roles repairer -pm host0:4000 -vm host1:4001
//
//	# or a replicated version plane: one process per replica of the
//	# one -vpeers group. Replica 0 looks like this; vary -vreplica and
//	# -listen for the rest.
//	blobnode -listen :4001 -roles vmanager -pm host0:4000 \
//	         -vreplica 0 -vpeers host1:4001,host2:4001,host3:4001
//	# a crashed replica of a multi-replica group restarts with the same
//	# flags plus -vrejoin
//
//	# each storage node (add -data-dir for a persistent, crash-recoverable
//	# provider; omit it for the paper's RAM-only mode)
//	blobnode -listen :4100 -roles provider,metadata \
//	         -pm host0:4000 -advertise hostN:4100 -capacity 4294967296 \
//	         -data-dir /var/lib/blob/pages
//
// Clients connect with blob.Options{Network: blob.TCP, VManagerShards:
// [][]string{{"host1:4001", "host2:4001", "host3:4001"}}, PManagerAddr:
// "host0:4000", MetaDirAddr: "host0:4000"}: one entry, the group's
// replicas.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"blob/internal/core"
	"blob/internal/dht"
	"blob/internal/diskstore"
	"blob/internal/erasure"
	"blob/internal/monitor"
	"blob/internal/mstore"
	"blob/internal/pmanager"
	"blob/internal/provider"
	repairpkg "blob/internal/repair"
	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/trace"
	"blob/internal/vmanager"
)

func main() {
	var (
		listen     = flag.String("listen", ":4000", "address to listen on")
		advertise  = flag.String("advertise", "", "address other nodes reach this node at (default: -listen)")
		roles      = flag.String("roles", "", "comma-separated roles: vmanager,pmanager,provider,metadata")
		pmAddr     = flag.String("pm", "", "provider manager / metadata directory address (for provider, metadata and vmanager roles)")
		capacity   = flag.Int64("capacity", 0, "data provider page capacity in bytes (0 = unlimited)")
		dataDir    = flag.String("data-dir", "", "data provider persistence directory (empty = RAM-only, the paper's mode)")
		segSize    = flag.Int64("segment-size", 0, "segment file size for -data-dir in bytes (0 = 4 MiB default)")
		syncWrites = flag.Bool("sync-writes", false, "fsync every page append to -data-dir")
		repair     = flag.Duration("repair", 30*time.Second, "version manager dead-writer repair timeout (0 disables)")
		vshards    = flag.Int("vshards", 1, "compatibility only: must be 1, the version plane is one replica group")
		vshard     = flag.Int("vshard", 0, "compatibility only: must be 0, the version plane is one replica group")
		vreplica   = flag.Int("vreplica", 0, "this node's replica index within the version-manager group (vmanager role)")
		vpeers     = flag.String("vpeers", "", "comma-separated replica addresses of the version-manager group, including this node (vmanager role; default: this node alone, a single-replica group; docs/vmanager-group.md)")
		vrejoin    = flag.Bool("vrejoin", false, "this replica is restarting after a crash into a multi-replica group: boot as a follower and catch up from the incumbent leader")
		vbeat      = flag.Duration("vheartbeat", 500*time.Millisecond, "group leader idle append interval (vmanager role)")
		repairEvr  = flag.Duration("repair-interval", time.Minute, "repair sweep period (repairer role)")
		vmAddr     = flag.String("vm", "", `version manager address, or its replica group "a,b,c" (repairer role)`)
		heartbeat  = flag.Duration("heartbeat", 5*time.Second, "data provider heartbeat interval")
		redundancy = flag.String("redundancy", "", `advertised redundancy mode "rs(k,m)", where rs(1,m) keeps 1+m copies of each page (pmanager role; clients adopt it for new blobs; default rs(1,0))`)
		adminAddr  = flag.String("admin", "", "admin HTTP listen address serving /metrics, /healthz and /debug/pprof (empty disables)")
		traceEvery = flag.Int("trace-sample", 0, "start a trace for 1-in-N of this process's own root operations (0 starts none, 1 traces everything); spans of traces that reach the node are recorded regardless")
		slowThresh = flag.Duration("slow-threshold", 0, "log the span tree of client operations slower than this (repairer role; 0 disables)")
		pollEvery  = flag.Duration("poll", time.Second, "cluster poll interval (monitor role)")
		watchVM    = flag.String("watch-vm", "", "comma-separated version-manager replica addresses the monitor polls (monitor role)")
		watchEvs   = flag.String("watch-events", "", "comma-separated extra addresses the monitor tails MEvents from, e.g. the repairer node (monitor role)")
	)
	flag.Parse()

	if *roles == "" {
		fmt.Fprintln(os.Stderr, "at least one -roles value is required")
		flag.Usage()
		os.Exit(2)
	}
	if *vshards != 1 || *vshard != 0 {
		log.Fatalf("-vshards %d -vshard %d: the version plane is one replica group (-vshards 1 -vshard 0, or neither)", *vshards, *vshard)
	}
	adv := *advertise
	if adv == "" {
		adv = *listen
	}

	red, err := erasure.ParseRedundancy(*redundancy)
	if err != nil {
		log.Fatalf("-redundancy: %v", err)
	}

	srv := rpc.NewServer()
	pool := rpc.NewPool(rpc.TCP{})
	defer pool.Close()
	ctx := context.Background()

	// Observability plane (docs/observability.md): one per-process
	// recorder of spans and cluster events, served over MSpans and
	// MEvents (role setup below hooks its emit sites in), and a metrics
	// registry exposed on the -admin HTTP listener.
	tracer := trace.New(adv, *traceEvery)
	srv.SetTracer(tracer)
	pool.SetTracer(tracer)
	if *traceEvery > 0 {
		log.Printf("tracing 1-in-%d operations", *traceEvery)
	}
	reg := stats.NewRegistry()
	if *adminAddr != "" {
		srv.EnableMetrics(reg)
		registerRPCMetrics(reg)
	}

	var vrep *vmanager.Replica
	var pm *pmanager.Manager
	var mon *monitor.Monitor
	var dataSvc *provider.Service
	var providerID uint32
	var agent *repairpkg.Repairer

	for _, role := range strings.Split(*roles, ",") {
		switch strings.TrimSpace(role) {
		case "pmanager":
			pm = pmanager.New(pmanager.Config{
				HeartbeatTimeout: 4 * *heartbeat,
				Redundancy:       red,
				Tracer:           tracer,
			})
			pm.RegisterHandlers(srv)
			// The metadata directory co-habits the provider manager node.
			dir := dht.NewDirectory()
			dir.RegisterHandlers(srv)
			log.Printf("role pmanager+directory (redundancy %s)", red)

		case "vmanager":
			cfg := vmanager.Config{}
			if *repair > 0 {
				if *pmAddr == "" {
					log.Fatal("vmanager with repair needs -pm (metadata directory address)")
				}
				kv, err := dht.NewDirectoryClient(ctx, pool, *pmAddr, 1)
				if err != nil {
					log.Fatalf("vmanager: reach metadata directory: %v", err)
				}
				cfg.RepairTimeout = *repair
				cfg.Store = mstore.New(kv, 0)
			}
			// One member of the version plane's replica group
			// (docs/vmanager-group.md). Without -vpeers the group is this
			// node alone.
			peers := []string{adv}
			if *vpeers != "" {
				if peers, err = vmanager.ParseGroupAddrs(*vpeers); err != nil {
					log.Fatalf("vmanager: -vpeers: %v", err)
				}
			}
			vrep, err = vmanager.NewReplica(vmanager.ReplicaConfig{
				Index:     *vreplica,
				Peers:     peers,
				Pool:      pool,
				Heartbeat: *vbeat,
				Rejoin:    *vrejoin,
				Tracer:    tracer,
				Manager:   cfg,
			})
			if errors.Is(err, vmanager.ErrLoneRejoin) {
				log.Fatal("vmanager: -vrejoin needs a multi-replica group (-vpeers): a lone replica has no leader to catch up from and would never lead; restart it without -vrejoin (it boots empty)")
			}
			if err != nil {
				log.Fatalf("vmanager: %v", err)
			}
			vrep.RegisterHandlers(srv)
			log.Printf("role vmanager replica (replica %d of %d, rejoin %v, repair %v)",
				*vreplica, len(peers), *vrejoin, *repair)

		case "provider":
			if *pmAddr == "" {
				log.Fatal("provider role needs -pm")
			}
			dataSvc, err = provider.Open(diskstore.Options{
				Dir:         *dataDir,
				SegmentSize: *segSize,
				Sync:        *syncWrites,
				Tracer:      tracer,
			}, *capacity)
			if err != nil {
				log.Fatalf("provider: open data dir %s: %v", *dataDir, err)
			}
			if *dataDir != "" {
				snap := dataSvc.Snapshot()
				log.Printf("provider: recovered %d pages (%d live bytes, %d segments; %d sidecars loaded, %d bytes replayed) from %s",
					snap.PageCount, snap.BytesUsed, snap.Segments, snap.SidecarsLoaded, snap.ReplayedBytes, *dataDir)
			}
			dataSvc.RegisterHandlers(srv)
			dataSvc.RegisterMetrics(reg)
			id, err := pmanager.RegisterProvider(ctx, pool, *pmAddr, adv, *capacity)
			if err != nil {
				log.Fatalf("provider: register with %s: %v", *pmAddr, err)
			}
			providerID = id
			log.Printf("role provider (id %d, capacity %d, persistence %q)",
				id, *capacity, *dataDir)

		case "repairer":
			// The repair agent: periodically walks every blob's
			// metadata and rebuilds each missing slot from its stripe's
			// survivors (docs/erasure.md §5). Needs both managers: -vm for
			// the blob list and versions, -pm for placement and the
			// metadata directory.
			if *pmAddr == "" || *vmAddr == "" {
				log.Fatal("repairer role needs -pm and -vm")
			}
			if *repairEvr <= 0 {
				log.Fatal("repairer role needs -repair-interval > 0")
			}
			vmGroup, err := vmanager.ParseGroupAddrs(*vmAddr)
			if err != nil {
				log.Fatalf("repairer: -vm: %v", err)
			}
			// The repairer is the deployment's long-lived client, and its
			// recorder is what the monitor tails (-watch-events) — so its
			// breakers are the cluster's gray-failure detector: a provider
			// answering its sweeps slowly or not at all trips a per-peer
			// breaker here, and the open/close transitions surface in
			// blobctl events and the monitor rollup (docs/robustness.md).
			client, err := core.NewClient(ctx, core.Options{
				Network:        rpc.TCP{},
				VManagerShards: [][]string{vmGroup},
				PManagerAddr:   *pmAddr,
				MetaDirAddr:    *pmAddr,
				Tracer:         tracer,
				SlowThreshold:  *slowThresh,
			})
			if err != nil {
				log.Fatalf("repairer: connect: %v", err)
			}
			agent = repairpkg.New(client)
			agent.Log = log.Printf
			agent.Tracer = tracer
			log.Printf("role repairer (interval %v)", *repairEvr)

		case "monitor":
			// The cluster health plane's aggregator: polls every node,
			// rolls the cluster up into one snapshot, and serves it over
			// MCluster (blobctl top) and the admin listener's /cluster/*
			// endpoints (docs/observability.md).
			if *pmAddr == "" {
				log.Fatal("monitor role needs -pm")
			}
			var vmGroup []string
			if *watchVM != "" {
				var err error
				vmGroup, err = vmanager.ParseGroupAddrs(*watchVM)
				if err != nil {
					log.Fatalf("monitor: -watch-vm: %v", err)
				}
			}
			var extra []string
			if *watchEvs != "" {
				for _, a := range strings.Split(*watchEvs, ",") {
					if a = strings.TrimSpace(a); a != "" {
						extra = append(extra, a)
					}
				}
			}
			mon = monitor.New(monitor.Config{
				Pool:       pool,
				PMAddr:     *pmAddr,
				VMReplicas: vmGroup,
				EventNodes: extra,
				Interval:   *pollEvery,
				Logf:       log.Printf,
			})
			mon.RegisterHandlers(srv)
			log.Printf("role monitor (poll %v, %d vm replicas, %d extra event nodes)",
				*pollEvery, len(vmGroup), len(extra))

		case "metadata":
			if *pmAddr == "" {
				log.Fatal("metadata role needs -pm (directory address)")
			}
			st := mstore.NewProvider()
			st.RegisterHandlers(srv)
			st.RegisterMetrics(reg)
			id, err := dht.RegisterWith(ctx, pool, *pmAddr, adv)
			if err != nil {
				log.Fatalf("metadata: register with %s: %v", *pmAddr, err)
			}
			log.Printf("role metadata provider (id %d)", id)

		default:
			log.Fatalf("unknown role %q", role)
		}
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}
	srv.Start(l)
	var serving atomic.Bool
	serving.Store(true)
	log.Printf("listening on %s (advertised as %s)", *listen, adv)
	if mon != nil {
		mon.Start()
	}
	if *adminAddr != "" {
		// Readiness (not liveness): serving goes false the moment
		// shutdown begins — before the page store closes — and a
		// vmanager replica is only ready while its group has a leader
		// it can route to. The page store itself opened before the RPC
		// listener, so "serving" also implies "store open".
		ready := func() (bool, string) {
			if !serving.Load() {
				return false, "shutting down"
			}
			if vrep != nil {
				st := vrep.Status()
				if !st.IsLeader && st.Leader < 0 {
					return false, "vmanager group: no reachable leader"
				}
			}
			return true, "ok"
		}
		startAdmin(*adminAddr, reg, mon, ready)
	}

	// Background loops of the data provider and repairer roles.
	stop := make(chan struct{})
	if dataSvc != nil {
		go pmanager.HeartbeatLoop(stop, pool, *pmAddr, providerID, *heartbeat,
			func() *provider.Service { return dataSvc }, log.Printf)
	}
	// wake lets a co-hosted pmanager start a repair sweep ahead of the
	// timer (capacity 1: a burst of deaths coalesces into one sweep).
	wake := make(chan struct{}, 1)
	if agent != nil {
		go agent.Run(stop, wake, *repairEvr)
	}
	// The pmanager always watches for heartbeat deaths: the watch loop
	// is what records heartbeat-death events for the monitor's tail.
	if pm != nil {
		go pm.DeathWatch(stop, func(id uint32) {
			log.Printf("pmanager: provider %d stopped heartbeating", id)
			select {
			case wake <- struct{}{}:
			default:
			}
		})
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	serving.Store(false)
	close(stop)
	if mon != nil {
		mon.Close()
	}
	// Stop serving before closing the store: a GetPages answered from a
	// closed store would report pages absent rather than failing the
	// connection, and clients cannot tell that apart from data loss.
	srv.Close()
	if dataSvc != nil {
		if err := dataSvc.Close(); err != nil {
			log.Printf("close data store: %v", err)
		}
	}
	if vrep != nil {
		vrep.Close()
	}
}
