// Command blobctl is the operator CLI for a running deployment: it
// exercises the paper's primitives (ALLOC, WRITE, READ) plus append,
// stat and garbage collection against the addresses of the three
// services.
//
// Usage:
//
//	blobctl -vm host1:4001 -pm host0:4000 create -pagesize 65536 -capacity 1099511627776
//	blobctl -vm ... -pm ... write  -blob 1 -offset 0 -in picture.raw
//	blobctl -vm ... -pm ... append -blob 1 -in next-epoch.raw
//	blobctl -vm ... -pm ... read   -blob 1 -offset 0 -length 65536 -version 3 -out tile.raw
//	blobctl -vm ... -pm ... stat   -blob 1
//	blobctl -vm ... -pm ... gc     -blob 1 -keep 5
//	blobctl -vm ... -pm ... repair -blob 1
//	blobctl -vm ... -pm ... stats [-json]
//	blobctl -vm ... -pm ... vmstatus [-json]
//	blobctl -vm ... -pm ... trace 0x1d8f3ab27c64e901
//
//	# against a monitor node (docs/observability.md): live dashboard
//	# and the merged cluster event tail
//	blobctl -monitor host:4500 top [-interval 2s] [-once]
//	blobctl -monitor host:4500 events [-follow] [-min-severity warn]
//
//	# gray-failure injection (docs/robustness.md): make provider 2 hold
//	# every page serve 500ms, then heal it
//	blobctl -vm ... -pm ... chaos -provider 2 -delay 500ms
//	blobctl -vm ... -pm ... chaos -provider 2
//
// Against a sharded, replicated version plane (docs/vmanager-group.md)
// -vm takes the group syntax: semicolon-separated shards,
// comma-separated replicas — `-vm "h1:4001,h2:4001;h3:4001,h4:4001"`.
// The vmstatus command prints every replica's role, term and log
// position.
//
// The trace command queries every node's span ring buffer (the MSpans
// RPC, see docs/observability.md) and reassembles one request's
// cross-process span tree.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"blob"
	"blob/internal/dht"
	"blob/internal/erasure"
	"blob/internal/provider"
	"blob/internal/trace"
	"blob/internal/vmanager"
)

func main() {
	vmAddr := flag.String("vm", "127.0.0.1:4001", `version manager address, or a shard group "a,b;c,d" (shards split by ';', replicas by ',')`)
	pmAddr := flag.String("pm", "127.0.0.1:4000", "provider manager / metadata directory address")
	replicas := flag.Int("replicas", 1, "data replication factor for writes")
	redundancy := flag.String("redundancy", "", `redundancy mode for created blobs: "replicate" or "rs(k,m)" (default: the cluster's advertised mode)`)
	traceOps := flag.Bool("trace", false, "trace this invocation's operations and print their trace ids (inspect with blobctl trace <id>)")
	monAddr := flag.String("monitor", "", "monitor node RPC address (top and events commands)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: blobctl [flags] create|write|append|read|stat|gc|repair|stats|vmstatus|trace|top|events|chaos [subflags]")
		os.Exit(2)
	}
	// The monitor-plane commands speak only to the monitor node — no
	// blob client (and no manager addresses) needed.
	switch flag.Arg(0) {
	case "top":
		runTop(*monAddr, flag.Args()[1:])
		return
	case "events":
		runEvents(*monAddr, flag.Args()[1:])
		return
	}
	red, err := erasure.ParseRedundancy(*redundancy)
	if err != nil {
		log.Fatalf("-redundancy: %v", err)
	}
	vmShards, err := vmanager.ParseGroupAddrs(*vmAddr)
	if err != nil {
		log.Fatalf("-vm: %v", err)
	}

	var tracer *trace.Tracer
	if *traceOps {
		tracer = trace.New("blobctl", trace.DefaultRing, 1)
	}
	ctx := context.Background()
	client, err := blob.NewClient(ctx, blob.Options{
		Network:        blob.TCP,
		VManagerShards: vmShards,
		PManagerAddr:   *pmAddr,
		MetaDirAddr:    *pmAddr,
		DataReplicas:   *replicas,
		Redundancy:     red,
		CacheNodes:     -1,
		Tracer:         tracer,
		// Operator reads get the production failure posture: hedged
		// fetches are on by default and per-peer breakers route around
		// gray peers (docs/robustness.md).
		Breakers: true,
	})
	if err != nil {
		log.Fatalf("connect: %v", err)
	}
	defer client.Close()
	// After a traced invocation, reassemble and print each root
	// operation's full cross-process tree: the local ring supplies the
	// client spans, every node's MSpans buffer the remote ones. The
	// trace id is printed too — server-side spans outlive this process
	// and stay queryable with blobctl trace <id>.
	defer func() {
		if tracer == nil {
			return
		}
		for _, sp := range tracer.Spans() {
			if sp.Parent != 0 {
				continue
			}
			spans := gatherTrace(ctx, client, vmShards, *pmAddr, sp.TraceID, tracer)
			fmt.Fprintf(os.Stderr, "trace %#x (%s): %d spans across %d process(es)\n",
				sp.TraceID, sp.Name, len(spans), trace.Processes(spans))
			fmt.Fprint(os.Stderr, trace.FormatTree(trace.BuildTree(spans)))
		}
	}()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "create":
		fs := flag.NewFlagSet("create", flag.ExitOnError)
		pageSize := fs.Uint64("pagesize", 64<<10, "page size in bytes (power of two)")
		capacity := fs.Uint64("capacity", 1<<30, "blob capacity in bytes")
		fs.Parse(args)
		b, err := client.CreateBlob(ctx, *pageSize, *capacity)
		if err != nil {
			log.Fatalf("create: %v", err)
		}
		fmt.Printf("blob %d created: pagesize %d, capacity %d, redundancy %s\n",
			b.ID(), b.PageSize(), b.CapacityBytes(), b.Redundancy())

	case "write", "append":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		blobID := fs.Uint64("blob", 0, "blob id")
		offset := fs.Uint64("offset", 0, "byte offset (write only)")
		in := fs.String("in", "", "input file (page-multiple size)")
		fs.Parse(args)
		data, err := os.ReadFile(*in)
		if err != nil {
			log.Fatalf("read %s: %v", *in, err)
		}
		b, err := client.OpenBlob(ctx, *blobID)
		if err != nil {
			log.Fatalf("open: %v", err)
		}
		if cmd == "append" {
			v, off, err := b.Append(ctx, data)
			if err != nil {
				log.Fatalf("append: %v", err)
			}
			fmt.Printf("appended %d bytes at offset %d -> version %d\n", len(data), off, v)
		} else {
			v, err := b.Write(ctx, data, *offset)
			if err != nil {
				log.Fatalf("write: %v", err)
			}
			fmt.Printf("wrote %d bytes at offset %d -> version %d\n", len(data), *offset, v)
		}

	case "read":
		fs := flag.NewFlagSet("read", flag.ExitOnError)
		blobID := fs.Uint64("blob", 0, "blob id")
		offset := fs.Uint64("offset", 0, "byte offset")
		length := fs.Uint64("length", 0, "bytes to read (page multiple)")
		version := fs.Uint64("version", 0, "version to read (0 = latest)")
		out := fs.String("out", "", "output file (default stdout)")
		count := fs.Int("count", 1, "repeat the read this many times (latency smoke; payload written once)")
		fs.Parse(args)
		b, err := client.OpenBlob(ctx, *blobID)
		if err != nil {
			log.Fatalf("open: %v", err)
		}
		buf := make([]byte, *length)
		v := blob.Version(*version)
		if v == 0 {
			latest, _, err := b.Latest(ctx)
			if err != nil {
				log.Fatalf("latest: %v", err)
			}
			v = latest
		}
		if *count < 1 {
			*count = 1
		}
		var latest blob.Version
		start := time.Now()
		for i := 0; i < *count; i++ {
			if latest, err = b.Read(ctx, buf, *offset, v); err != nil {
				log.Fatalf("read: %v", err)
			}
		}
		elapsed := time.Since(start)
		if *out == "" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
			log.Fatalf("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "read %d bytes of version %d (newest known published: %d)\n", len(buf), v, latest)
		if *count > 1 {
			// A version the handle already knows published costs no trip:
			// 0 here unless -version named one newer than the open saw.
			fmt.Fprintf(os.Stderr, "reads: %d in %v (mean %v/read), %d version-manager trips\n",
				*count, elapsed.Round(time.Millisecond), (elapsed / time.Duration(*count)).Round(time.Microsecond),
				client.VersionTrips.Value())
		}
		// Surface the gray-failure machinery's verdict on this
		// invocation: how often a fetch was hedged to a second replica,
		// how often the hedge won, and which peers the client's
		// breakers currently refuse (docs/robustness.md).
		if hedged := client.HedgedReads.Value(); hedged > 0 {
			fmt.Fprintf(os.Stderr, "hedged fetches: %d (%d won)\n", hedged, client.HedgeWins.Value())
		}
		if open := client.Pool().OpenBreakers(); len(open) > 0 {
			fmt.Fprintf(os.Stderr, "breakers open: %s\n", strings.Join(open, ", "))
		}

	case "stat":
		fs := flag.NewFlagSet("stat", flag.ExitOnError)
		blobID := fs.Uint64("blob", 0, "blob id")
		fs.Parse(args)
		b, err := client.OpenBlob(ctx, *blobID)
		if err != nil {
			log.Fatalf("open: %v", err)
		}
		v, size, err := b.Latest(ctx)
		if err != nil {
			log.Fatalf("latest: %v", err)
		}
		fmt.Printf("blob %d: pagesize %d, capacity %d, redundancy %s, latest version %d, size %d bytes\n",
			b.ID(), b.PageSize(), b.CapacityBytes(), b.Redundancy(), v, size)

	case "gc":
		fs := flag.NewFlagSet("gc", flag.ExitOnError)
		blobID := fs.Uint64("blob", 0, "blob id")
		keep := fs.Uint64("keep", 0, "oldest version to keep readable")
		fs.Parse(args)
		rep, err := blob.NewCollector(client).Collect(ctx, *blobID, *keep)
		if err != nil {
			log.Fatalf("gc: %v", err)
		}
		fmt.Printf("collected %d versions: %d tree nodes and %d page replicas deleted (%d nodes kept)\n",
			rep.VersionsCollected, rep.NodesDeleted, rep.PagesDeleted, rep.NodesKept)

	case "repair":
		fs := flag.NewFlagSet("repair", flag.ExitOnError)
		blobID := fs.Uint64("blob", 0, "blob id (0 = every blob)")
		fs.Parse(args)
		blobs := []uint64{*blobID}
		if *blobID == 0 {
			var err error
			blobs, err = client.VersionManager().Blobs(ctx)
			if err != nil {
				log.Fatalf("list blobs: %v", err)
			}
		}
		agent := blob.NewRepairer(client)
		agent.Log = log.Printf
		rep, err := agent.RepairAll(ctx, blobs)
		if err != nil {
			log.Fatalf("repair: %v", err)
		}
		fmt.Printf("checked %d replica slots over %d blob(s): %d degraded, %d repaired (%d bytes pulled, %d already held), %d reconstructed (%d bytes pushed, %d survivor bytes read), %d settled by digests, %d unrepairable\n",
			rep.PagesChecked, len(blobs), rep.PagesMissing, rep.PagesRepaired,
			rep.BytesPulled, rep.PagesSkipped,
			rep.PagesReconstructed, rep.ReconstructedBytes, rep.SurvivorBytes,
			rep.BloomSkips, rep.Unrepairable)
		if !rep.FullyRedundant() {
			os.Exit(1)
		}

	case "stats":
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		asJSON := fs.Bool("json", false, "machine-readable output: one JSON document instead of the table")
		fs.Parse(args)
		provs, err := client.AllProviders(ctx)
		if err != nil {
			log.Fatalf("list providers: %v", err)
		}
		if *asJSON {
			type provWithStats struct {
				ID   uint32 `json:"id"`
				Addr string `json:"addr"`
				provider.Stats
			}
			type metaWithStats struct {
				Addr string `json:"addr"`
				dht.StoreStats
			}
			doc := struct {
				Redundancy string          `json:"redundancy"`
				Providers  []provWithStats `json:"providers"`
				Metadata   []metaWithStats `json:"metadata"`
			}{Redundancy: client.ClusterRedundancy().String()}
			metas, addrs := metaStats(ctx, client)
			for _, addr := range addrs {
				doc.Metadata = append(doc.Metadata, metaWithStats{Addr: addr, StoreStats: metas[addr]})
			}
			failed := 0
			for _, p := range provs {
				resp, err := client.Pool().Call(ctx, p.Addr, provider.MStats, nil)
				if err != nil {
					fmt.Fprintf(os.Stderr, "error: provider %d (%s) unreachable: %v\n", p.ID, p.Addr, err)
					failed++
					continue
				}
				st, err := provider.DecodeStats(resp)
				if err != nil {
					fmt.Fprintf(os.Stderr, "error: provider %d (%s) returned a bad stats response: %v\n", p.ID, p.Addr, err)
					failed++
					continue
				}
				doc.Providers = append(doc.Providers, provWithStats{ID: p.ID, Addr: p.Addr, Stats: st})
			}
			if failed > 0 {
				log.Fatalf("stats incomplete: %d of %d providers did not answer", failed, len(provs))
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				log.Fatalf("encode: %v", err)
			}
			return
		}
		fmt.Printf("cluster redundancy: %s\n", client.ClusterRedundancy())
		if len(vmShards) > 1 || len(vmShards[0]) > 1 {
			// Sharded version plane: one summary line per shard.
			for s, shard := range vmShards {
				lead, term, loglen := -1, uint64(0), uint64(0)
				for j := range shard {
					if st, err := client.VersionManager().FetchStatus(ctx, s, j); err == nil && st.IsLeader && (lead < 0 || st.Term > term) {
						lead, term, loglen = j, st.Term, st.LogLen
					}
				}
				if lead < 0 {
					fmt.Printf("vmanager shard %d: no leader (%d replicas)\n", s, len(shard))
				} else {
					fmt.Printf("vmanager shard %d: leader %s (replica %d, term %d, %d log records)\n",
						s, shard[lead], lead, term, loglen)
				}
			}
		}
		fmt.Printf("%-4s %-22s %10s %12s %12s %12s %8s %6s %10s %5s %8s %10s %7s\n",
			"id", "addr", "pages", "bytes", "capacity", "disk", "segs", "live%", "replayB", "idx",
			"repairP", "pullB", "bskip")
		// A provider that cannot be queried fails the command: printing
		// a zero-value row would read as "provider is empty", which an
		// operator can mistake for data loss.
		failed := 0
		for _, p := range provs {
			resp, err := client.Pool().Call(ctx, p.Addr, provider.MStats, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: provider %d (%s) unreachable: %v\n", p.ID, p.Addr, err)
				failed++
				continue
			}
			st, err := provider.DecodeStats(resp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: provider %d (%s) returned a bad stats response: %v\n", p.ID, p.Addr, err)
				failed++
				continue
			}
			fmt.Printf("%-4d %-22s %10d %12d %12d %12d %8d %5.1f%% %10d %5d %8d %10d %7d\n",
				p.ID, p.Addr, st.PageCount, st.BytesUsed, st.Capacity,
				st.DiskBytes, st.Segments, 100*st.LiveRatio(),
				st.ReplayedBytes, st.SidecarsLoaded,
				st.RepairedPages, st.RepairBytes, st.BloomSkips)
		}
		if failed > 0 {
			log.Fatalf("stats incomplete: %d of %d providers did not answer", failed, len(provs))
		}
		// Metadata providers: what they hold, and whether the blocks
		// they send ahead of being asked (extras) are worth their bytes —
		// served against used by readers, and responses cut at the cap.
		// A reader reports what it used to whichever provider it asks
		// next, so served against used compares on the total row only.
		metas, addrs := metaStats(ctx, client)
		const row = "%-22s %10d %12d %10d %12d %10d %10d %10d %7d\n"
		fmt.Printf("\n%-22s %10s %12s %10s %12s %10s %10s %10s %7s\n",
			"metadata addr", "blocks", "bytes", "puts", "gets", "misses", "extras", "used", "caphit")
		var sum dht.StoreStats
		for _, addr := range addrs {
			st := metas[addr]
			fmt.Printf(row, addr, st.Entries, st.Bytes, st.Puts, st.Gets, st.Misses,
				st.FollowServed, st.FollowUsed, st.FollowCapHits)
			sum.Add(st)
		}
		fmt.Printf(row, "total", sum.Entries, sum.Bytes, sum.Puts, sum.Gets, sum.Misses,
			sum.FollowServed, sum.FollowUsed, sum.FollowCapHits)

	case "vmstatus":
		// Per-replica view of the version plane: role, term and log
		// position of every shard member. The primary operator check
		// after a node failure — a shard is healthy when exactly one
		// replica leads and the followers' log lengths track it.
		fs := flag.NewFlagSet("vmstatus", flag.ExitOnError)
		asJSON := fs.Bool("json", false, "machine-readable output: one JSON document instead of the table")
		fs.Parse(args)
		type replicaRow struct {
			Shard   int    `json:"shard"`
			Replica int    `json:"replica"`
			Addr    string `json:"addr"`
			Role    string `json:"role"`
			Term    uint64 `json:"term"`
			LogLen  uint64 `json:"logLen"`
			LogBase uint64 `json:"logBase"`
			Blobs   uint64 `json:"blobs"`
			Error   string `json:"error,omitempty"`
		}
		var rows []replicaRow
		down := 0
		for s, shard := range vmShards {
			for j, addr := range shard {
				row := replicaRow{Shard: s, Replica: j, Addr: addr}
				st, err := client.VersionManager().FetchStatus(ctx, s, j)
				if err != nil {
					row.Role, row.Error = "down", err.Error()
					down++
				} else {
					row.Role = "follower"
					if st.IsLeader {
						row.Role = "leader"
					}
					row.Term, row.LogLen, row.LogBase, row.Blobs = st.Term, st.LogLen, st.LogBase, st.Blobs
				}
				rows = append(rows, row)
			}
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				Shards   int          `json:"shards"`
				Replicas []replicaRow `json:"replicas"`
			}{Shards: len(vmShards), Replicas: rows}); err != nil {
				log.Fatalf("encode: %v", err)
			}
		} else {
			fmt.Printf("version plane: %d shard(s)\n", len(vmShards))
			fmt.Printf("%-6s %-8s %-22s %-9s %6s %9s %9s %7s\n",
				"shard", "replica", "addr", "role", "term", "loglen", "logbase", "blobs")
			for _, r := range rows {
				if r.Error != "" {
					fmt.Printf("%-6d %-8d %-22s %-9s %s\n", r.Shard, r.Replica, r.Addr, r.Role, r.Error)
					continue
				}
				fmt.Printf("%-6d %-8d %-22s %-9s %6d %9d %9d %7d\n",
					r.Shard, r.Replica, r.Addr, r.Role, r.Term, r.LogLen, r.LogBase, r.Blobs)
			}
		}
		if down > 0 {
			os.Exit(1)
		}

	case "chaos":
		// Gray-failure injection (docs/robustness.md): arm or heal a
		// data provider's chaos mode live. The provider keeps running,
		// registered and heartbeating — it just serves pages slowly
		// (-delay), or not at all (-stall), until healed (no flags).
		fs := flag.NewFlagSet("chaos", flag.ExitOnError)
		provID := fs.Uint("provider", 0, "data provider id to target (see blobctl stats)")
		nodeAddr := fs.String("addr", "", "provider address to target (alternative to -provider)")
		delay := fs.Duration("delay", 0, "hold every page serve this long (0 with no -stall heals)")
		stall := fs.Bool("stall", false, "stall page serves outright until healed")
		fs.Parse(args)
		addr := *nodeAddr
		if addr == "" {
			if *provID == 0 {
				log.Fatal("chaos: -provider or -addr is required")
			}
			provs, err := client.AllProviders(ctx)
			if err != nil {
				log.Fatalf("list providers: %v", err)
			}
			for _, p := range provs {
				if p.ID == uint32(*provID) {
					addr = p.Addr
					break
				}
			}
			if addr == "" {
				log.Fatalf("chaos: no provider with id %d", *provID)
			}
		}
		if _, err := client.Pool().Call(ctx, addr, provider.MChaos, provider.EncodeChaos(*delay, *stall)); err != nil {
			log.Fatalf("chaos: %s: %v", addr, err)
		}
		if *delay == 0 && !*stall {
			fmt.Printf("%s healed\n", addr)
		} else {
			fmt.Printf("%s chaos armed: delay %v, stall %v\n", addr, *delay, *stall)
		}

	case "trace":
		// Reassemble one request's cross-process span tree: every node
		// keeps the spans it recorded in a ring buffer served over
		// MSpans; sweep the managers, every data provider and every
		// metadata provider, then stitch by parent span id.
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		fs.Parse(args)
		if fs.NArg() != 1 {
			log.Fatal("usage: blobctl trace <trace-id> (decimal or 0x hex, from a slow-request log or traced client)")
		}
		id, err := strconv.ParseUint(fs.Arg(0), 0, 64)
		if err != nil || id == 0 {
			log.Fatalf("trace: bad trace id %q", fs.Arg(0))
		}
		spans := gatherTrace(ctx, client, vmShards, *pmAddr, id, nil)
		if len(spans) == 0 {
			log.Fatalf("trace %#x: no spans found — was the operation sampled, and do the rings still hold it?", id)
		}
		fmt.Printf("trace %#x: %d spans across %d process(es)\n", id, len(spans), trace.Processes(spans))
		fmt.Print(trace.FormatTree(trace.BuildTree(spans)))

	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		os.Exit(2)
	}
}

// metaStats fetches every metadata provider's statistics; a store that
// cannot be queried fails the command, as a data provider does.
func metaStats(ctx context.Context, client *blob.Client) (map[string]dht.StoreStats, []string) {
	metas, err := client.Meta().StoreStats(ctx)
	if err != nil {
		log.Fatalf("metadata provider stats: %v", err)
	}
	addrs := make([]string, 0, len(metas))
	for a := range metas {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return metas, addrs
}

// gatherTrace reassembles one trace: it sweeps every node's span ring
// over the MSpans RPC — the managers, every data provider and every
// metadata provider — and merges in the local tracer's spans when the
// invocation itself was traced. Nodes running without a tracer (or
// older builds) are noted and skipped; a partial tree is still useful.
func gatherTrace(ctx context.Context, client *blob.Client, vmShards [][]string, pmAddr string, id uint64, local *trace.Tracer) []trace.Span {
	var spans []trace.Span
	if local != nil {
		spans = append(spans, local.SpansFor(id)...)
	}
	addrSet := map[string]bool{pmAddr: true}
	for _, shard := range vmShards {
		for _, addr := range shard {
			addrSet[addr] = true
		}
	}
	if provs, err := client.AllProviders(ctx); err == nil {
		for _, p := range provs {
			addrSet[p.Addr] = true
		}
	} else {
		fmt.Fprintf(os.Stderr, "note: could not list data providers: %v\n", err)
	}
	if resp, err := client.Pool().Call(ctx, pmAddr, dht.MDirMembers, nil); err == nil {
		if _, members, err := dht.DecodeMembers(resp); err == nil {
			for _, m := range members {
				addrSet[m.Addr] = true
			}
		}
	}
	addrs := make([]string, 0, len(addrSet))
	for a := range addrSet {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		resp, err := client.Pool().Call(ctx, addr, trace.MSpans, trace.EncodeSpansQuery(id))
		if err != nil {
			fmt.Fprintf(os.Stderr, "note: %s: no spans served: %v\n", addr, err)
			continue
		}
		got, err := trace.DecodeSpans(resp)
		if err != nil {
			log.Fatalf("trace: %s: bad MSpans response: %v", addr, err)
		}
		spans = append(spans, got...)
	}
	return spans
}
