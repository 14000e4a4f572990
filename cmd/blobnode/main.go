// Command blobnode runs one node of a real (TCP) deployment of the
// service. The same process can host any combination of roles, so the
// paper's topology — a version manager node, a provider manager node and
// N storage nodes each hosting one data provider and one metadata
// provider — maps onto:
//
//	# managers (provider manager co-hosts the metadata directory). The
//	# version plane is always a replica group (docs/vmanager-group.md);
//	# a bare vmanager role is its smallest form, one shard of one
//	# RAM-only replica that restarts empty.
//	blobnode -listen :4000 -roles pmanager
//	blobnode -listen :4001 -advertise host1:4001 -roles vmanager -pm host0:4000
//
//	# optional replica repair agent (docs/replication.md)
//	blobnode -listen :4002 -roles repairer -pm host0:4000 -vm host1:4001
//
//	# or a sharded, replicated version plane: one process per replica,
//	# each shard a -vpeers group. Replica 0 of shard 0 looks like this;
//	# vary -vshard/-vreplica/-listen for the rest.
//	blobnode -listen :4001 -roles vmanager -pm host0:4000 \
//	         -vshards 2 -vshard 0 -vreplica 0 \
//	         -vpeers host1:4001,host2:4001,host3:4001
//	# a crashed replica of a multi-replica shard restarts with the same
//	# flags plus -vrejoin
//
//	# each storage node (add -data-dir for a persistent, crash-recoverable
//	# provider; omit it for the paper's RAM-only mode)
//	blobnode -listen :4100 -roles provider,metadata \
//	         -pm host0:4000 -advertise hostN:4100 -capacity 4294967296 \
//	         -data-dir /var/lib/blob/pages
//
// Clients connect with blob.Options{Network: blob.TCP, VManagerShards:
// [][]string{{"host1:4001"}}, PManagerAddr: "host0:4000", MetaDirAddr:
// "host0:4000"}.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	"blob/internal/events"
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
		compactEvr = flag.Duration("compact-interval", time.Minute, "segment compaction period for -data-dir (0 disables)")
		compactBps = flag.Int64("compact-rate", 0, "compaction I/O throttle for -data-dir in bytes/sec (0 = unthrottled)")
		syncWrites = flag.Bool("sync-writes", false, "fsync every page append to -data-dir")
		repair     = flag.Duration("repair", 30*time.Second, "version manager dead-writer repair timeout (0 disables)")
		vshards    = flag.Int("vshards", 1, "total version-manager shard count of the deployment (vmanager role)")
		vshard     = flag.Int("vshard", 0, "this node's version-manager shard index (vmanager role)")
		vreplica   = flag.Int("vreplica", 0, "this node's replica index within its shard (vmanager role)")
		vpeers     = flag.String("vpeers", "", "comma-separated replica addresses of this shard, including this node (vmanager role; default: this node alone, a single-replica shard; docs/vmanager-group.md)")
		vrejoin    = flag.Bool("vrejoin", false, "this replica is restarting after a crash into a multi-replica shard: boot as a follower and catch up from the incumbent leader")
		vbeat      = flag.Duration("vheartbeat", 500*time.Millisecond, "shard leader idle append interval (vmanager role)")
		velection  = flag.Duration("velection", 0, "follower silence before campaigning (0 = 10x -vheartbeat)")
		repairBps  = flag.Int64("repair-rate", 0, "replica repair pull throttle in bytes/sec (0 = unthrottled; provider role)")
		repairEvr  = flag.Duration("repair-interval", time.Minute, "replica repair sweep period (repairer role)")
		vmAddr     = flag.String("vm", "", `version manager address, or a shard group "a,b;c,d" (repairer role)`)
		heartbeat  = flag.Duration("heartbeat", 5*time.Second, "data provider heartbeat interval")
		strategy   = flag.String("strategy", "round-robin", "placement strategy: round-robin|least-loaded|power-of-two")
		redundancy = flag.String("redundancy", "replicate", `advertised redundancy mode: "replicate" or "rs(k,m)" (pmanager role; clients adopt it for new blobs)`)
		adminAddr  = flag.String("admin", "", "admin HTTP listen address serving /metrics, /healthz and /debug/pprof (empty disables)")
		traceEvery = flag.Int("trace-sample", 0, "record spans for 1-in-N root operations (0 disables tracing, 1 traces everything)")
		traceRing  = flag.Int("trace-ring", trace.DefaultRing, "span ring buffer capacity (spans kept per process)")
		slowThresh = flag.Duration("slow-threshold", 0, "log the span tree of client operations slower than this (repairer role; 0 disables)")
		eventRing  = flag.Int("event-ring", 0, "cluster event journal ring capacity (0 = default, negative disables)")
		chaosDelay = flag.Duration("chaos-delay", 0, "gray-failure injection: hold every page serve this long (provider role; change live with blobctl chaos)")
		chaosStall = flag.Bool("chaos-stall", false, "gray-failure injection: stall page serves outright until healed via blobctl chaos (provider role)")
		pollEvery  = flag.Duration("poll", time.Second, "cluster poll interval (monitor role)")
		watchVM    = flag.String("watch-vm", "", `version-manager shards the monitor polls: replica addresses comma-separated within a shard, shards separated by ";" (monitor role)`)
		watchEvs   = flag.String("watch-events", "", "comma-separated extra addresses the monitor tails MEvents from, e.g. the repairer node (monitor role)")
	)
	flag.Parse()

	if *roles == "" {
		fmt.Fprintln(os.Stderr, "at least one -roles value is required")
		flag.Usage()
		os.Exit(2)
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

	// Observability plane (docs/observability.md): a per-process span
	// tracer served over MSpans, and a metrics registry exposed on the
	// -admin HTTP listener.
	var tracer *trace.Tracer
	if *traceEvery > 0 {
		tracer = trace.New(adv, *traceRing, *traceEvery)
		srv.SetTracer(tracer)
		log.Printf("tracing 1-in-%d operations (ring %d spans)", *traceEvery, *traceRing)
	}
	reg := stats.NewRegistry()
	if *adminAddr != "" {
		srv.EnableMetrics(reg)
		registerRPCMetrics(reg)
	}
	// Every process keeps a cluster event journal (docs/observability.md)
	// served over MEvents; role setup below hooks its emit sites in.
	journal := events.NewJournal(adv, *eventRing)
	srv.SetJournal(journal)
	pool.SetJournal(journal)

	var vrep *vmanager.Replica
	var pm *pmanager.Manager
	var mon *monitor.Monitor
	var dataSvc *provider.Service
	var dataStore provider.PageStore
	var providerID uint32
	// repairNow wakes a co-hosted repairer role ahead of its sweep timer
	// when the co-hosted pmanager detects a heartbeat death.
	repairNow := make(chan struct{}, 1)
	hasRepairer := false

	for _, role := range strings.Split(*roles, ",") {
		switch strings.TrimSpace(role) {
		case "pmanager":
			strat := pmanager.RoundRobin
			switch *strategy {
			case "least-loaded":
				strat = pmanager.LeastLoaded
			case "power-of-two":
				strat = pmanager.PowerOfTwo
			}
			pm = pmanager.New(pmanager.Config{
				Strategy:         strat,
				HeartbeatTimeout: 4 * *heartbeat,
				Redundancy:       red,
				Journal:          journal,
			})
			pm.RegisterHandlers(srv)
			// The metadata directory co-habits the provider manager node.
			dir := dht.NewDirectory()
			dir.RegisterHandlers(srv)
			log.Printf("role pmanager+directory (strategy %s, redundancy %s)", strat, red)

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
			// (docs/vmanager-group.md). Without -vpeers the shard is this
			// node alone.
			peers := []string{adv}
			if *vpeers != "" {
				peers = strings.Split(*vpeers, ",")
				for i := range peers {
					peers[i] = strings.TrimSpace(peers[i])
				}
			}
			if *vshard < 0 || *vshard >= *vshards {
				log.Fatalf("vmanager: -vshard %d out of range for -vshards %d", *vshard, *vshards)
			}
			vrep, err = vmanager.NewReplica(vmanager.ReplicaConfig{
				Shard:           *vshard,
				Shards:          *vshards,
				Index:           *vreplica,
				Peers:           peers,
				Pool:            pool,
				Heartbeat:       *vbeat,
				ElectionTimeout: *velection,
				Rejoin:          *vrejoin,
				Journal:         journal,
				Manager:         cfg,
			})
			if errors.Is(err, vmanager.ErrLoneRejoin) {
				log.Fatal("vmanager: -vrejoin needs a multi-replica shard (-vpeers): a lone replica has no leader to catch up from and would never lead; restart it without -vrejoin (it boots empty)")
			}
			if err != nil {
				log.Fatalf("vmanager: %v", err)
			}
			vrep.RegisterHandlers(srv)
			log.Printf("role vmanager replica (shard %d/%d, replica %d of %d, rejoin %v, repair %v)",
				*vshard, *vshards, *vreplica, len(peers), *vrejoin, *repair)

		case "provider":
			if *pmAddr == "" {
				log.Fatal("provider role needs -pm")
			}
			if *dataDir != "" {
				ds, err := provider.NewDiskStore(diskstore.Options{
					Dir:              *dataDir,
					SegmentSize:      *segSize,
					Sync:             *syncWrites,
					CompactEvery:     *compactEvr,
					CompactRateBytes: *compactBps,
					Journal:          journal,
				}, *capacity)
				if err != nil {
					log.Fatalf("provider: open data dir %s: %v", *dataDir, err)
				}
				snap := ds.Snapshot()
				log.Printf("provider: recovered %d pages (%d live bytes, %d segments; %d sidecars loaded, %d bytes replayed) from %s",
					snap.PageCount, snap.BytesUsed, snap.Segments, snap.SidecarsLoaded, snap.ReplayedBytes, *dataDir)
				dataStore = ds
			} else {
				dataStore = provider.NewStore(*capacity)
			}
			dataSvc = provider.NewService(dataStore)
			// Peer pulls (MPullPages) dial other providers through the
			// node's shared TCP pool, throttled by -repair-rate.
			dataSvc.EnableRepair(pool, *repairBps)
			dataSvc.RegisterHandlers(srv)
			dataSvc.RegisterMetrics(reg)
			id, err := pmanager.RegisterProvider(ctx, pool, *pmAddr, adv, *capacity)
			if err != nil {
				log.Fatalf("provider: register with %s: %v", *pmAddr, err)
			}
			providerID = id
			log.Printf("role provider (id %d, capacity %d, persistence %q, repair rate %d B/s)",
				id, *capacity, *dataDir, *repairBps)
			if *chaosDelay > 0 || *chaosStall {
				// Boot gray: a drill can start a provider sick instead of
				// turning it sick with blobctl chaos (docs/robustness.md).
				dataSvc.SetChaos(*chaosDelay, *chaosStall)
				log.Printf("provider: CHAOS armed (delay %v, stall %v)", *chaosDelay, *chaosStall)
			}

		case "repairer":
			// The replica repair agent: periodically walks every blob's
			// metadata, directs degraded providers to pull missing
			// pages from healthy peers (docs/replication.md), and
			// reconstructs missing erasure-coded shards from stripe
			// survivors (docs/erasure.md). Needs both managers: -vm for
			// the blob list and versions, -pm for placement and the
			// metadata directory.
			if *pmAddr == "" || *vmAddr == "" {
				log.Fatal("repairer role needs -pm and -vm")
			}
			hasRepairer = true
			if *repairEvr <= 0 {
				log.Fatal("repairer role needs -repair-interval > 0")
			}
			vmShards, err := vmanager.ParseGroupAddrs(*vmAddr)
			if err != nil {
				log.Fatalf("repairer: -vm: %v", err)
			}
			// The repairer is the deployment's long-lived client, and its
			// journal is what the monitor tails (-watch-events) — so its
			// breakers are the cluster's gray-failure detector: a provider
			// answering its sweeps slowly or not at all trips a per-peer
			// breaker here, and the open/close transitions surface in
			// blobctl events and the monitor rollup (docs/robustness.md).
			client, err := core.NewClient(ctx, core.Options{
				Network:        rpc.TCP{},
				VManagerShards: vmShards,
				PManagerAddr:   *pmAddr,
				MetaDirAddr:    *pmAddr,
				Tracer:         tracer,
				SlowThreshold:  *slowThresh,
				Breakers:       true,
				Journal:        journal,
			})
			if err != nil {
				log.Fatalf("repairer: connect: %v", err)
			}
			agent := repairpkg.New(client)
			agent.Log = log.Printf
			agent.Journal = journal
			interval := *repairEvr
			go func() {
				t := time.NewTicker(interval)
				defer t.Stop()
				for {
					select {
					case <-t.C:
					case <-repairNow:
						// A co-hosted pmanager detected a heartbeat
						// death: repair immediately instead of waiting
						// out the sweep timer.
						log.Printf("repairer: provider death detected, sweeping now")
					}
					sctx, cancel := context.WithTimeout(ctx, interval*4)
					// Re-learn the metadata membership each sweep: the
					// boot-time ring may predate some nodes' registration,
					// and a stale ring hashes tree nodes to the wrong
					// provider.
					if err := client.Meta().Refresh(sctx); err != nil {
						log.Printf("repairer: refresh metadata ring: %v", err)
					}
					blobs, err := client.VersionManager().Blobs(sctx)
					if err != nil {
						log.Printf("repairer: list blobs: %v", err)
						cancel()
						continue
					}
					rep, err := agent.RepairAll(sctx, blobs)
					cancel()
					if err != nil {
						log.Printf("repairer: %v", err)
					}
					if rep.PagesMissing > 0 {
						log.Printf("repairer: %d slots degraded, %d repaired (%d bytes pulled), %d reconstructed (%d bytes), %d unrepairable",
							rep.PagesMissing, rep.PagesRepaired, rep.BytesPulled,
							rep.PagesReconstructed, rep.ReconstructedBytes, rep.Unrepairable)
					}
				}
			}()
			log.Printf("role repairer (interval %v)", interval)

		case "monitor":
			// The cluster health plane's aggregator: polls every node,
			// rolls the cluster up into one snapshot, and serves it over
			// MCluster (blobctl top) and the admin listener's /cluster/*
			// endpoints (docs/observability.md).
			if *pmAddr == "" {
				log.Fatal("monitor role needs -pm")
			}
			var shards [][]string
			if *watchVM != "" {
				var err error
				shards, err = vmanager.ParseGroupAddrs(*watchVM)
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
				VMShards:   shards,
				EventNodes: extra,
				Interval:   *pollEvery,
				Logf:       log.Printf,
			})
			mon.RegisterHandlers(srv)
			log.Printf("role monitor (poll %v, %d vm shards, %d extra event nodes)",
				*pollEvery, len(shards), len(extra))

		case "metadata":
			if *pmAddr == "" {
				log.Fatal("metadata role needs -pm (directory address)")
			}
			st := dht.NewStore()
			st.Follow = mstore.FollowBlock
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
		// vmanager replica is only ready while its shard has a leader
		// it can route to. The page store itself opened before the RPC
		// listener, so "serving" also implies "store open".
		ready := func() (bool, string) {
			if !serving.Load() {
				return false, "shutting down"
			}
			if vrep != nil {
				st := vrep.Status()
				if !st.IsLeader && st.Leader < 0 {
					return false, fmt.Sprintf("vmanager shard %d: no reachable leader", st.Shard)
				}
			}
			return true, "ok"
		}
		startAdmin(*adminAddr, reg, mon, ready)
	}

	// Heartbeat loop for the data provider role.
	stop := make(chan struct{})

	// The pmanager always watches for heartbeat deaths: the watch loop
	// is what journals heartbeat-death events for the monitor's tail.
	// When a repairer role co-habits this process, a death additionally
	// triggers an immediate repair pass.
	if pm != nil {
		go pm.DeathWatch(stop, func(id uint32) {
			log.Printf("pmanager: provider %d stopped heartbeating", id)
			if !hasRepairer {
				return
			}
			select {
			case repairNow <- struct{}{}:
			default:
			}
		})
	}
	if dataSvc != nil {
		go func() {
			t := time.NewTicker(*heartbeat)
			defer t.Stop()
			// Bloom-digest piggyback: recompute when the store's
			// counters move, resend bytes only while the manager's held
			// hash disagrees (see docs/observability.md).
			var digHash, held uint64
			var digest []byte
			lastPuts, lastPages := int64(-1), int64(-1)
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					snap := dataSvc.Snapshot()
					if snap.Puts != lastPuts || snap.PageCount != lastPages {
						digHash, digest = dataSvc.DigestBytes()
						lastPuts, lastPages = snap.Puts, snap.PageCount
					}
					var payload []byte
					if digHash != 0 && digHash != held {
						payload = digest
					}
					hctx, cancel := context.WithTimeout(ctx, *heartbeat)
					h, err := pmanager.SendHeartbeatDigest(hctx, pool, *pmAddr, providerID, snap.BytesUsed, snap.ActiveOps, digHash, payload)
					if err != nil {
						log.Printf("heartbeat: %v", err)
					} else {
						held = h
					}
					cancel()
				}
			}
		}()
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
	if cl, ok := dataStore.(io.Closer); ok {
		if err := cl.Close(); err != nil {
			log.Printf("close data store: %v", err)
		}
	}
	if vrep != nil {
		vrep.Close()
	}
}
