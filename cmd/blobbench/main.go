// Command blobbench regenerates the paper's evaluation figures as text
// tables on an in-process simulated cluster (internal/netsim with the
// Grid'5000 parameters, time-dilated by netsim.TimeScale).
//
// Usage:
//
//	blobbench -exp fig3a            # metadata read overhead (Figure 3a)
//	blobbench -exp fig3b            # metadata write overhead (Figure 3b)
//	blobbench -exp fig3c            # concurrent throughput   (Figure 3c)
//	blobbench -exp ablations        # design-choice ablations
//	blobbench -exp hotpath          # data hot path: latency, allocs, trace/monitor tax
//	blobbench -exp vshards          # sharded version plane scaling
//	blobbench -exp ingest           # pinned readers under streaming ingestion
//	blobbench -exp swarm            # Galaxy-Zoo tiny-read swarm
//	blobbench -exp timetravel       # epoch diffs across version distance
//	blobbench -exp workloads        # all three scenarios -> BENCH_8.json
//	blobbench -exp chaos            # gray-failure matrix -> BENCH_10.json
//	blobbench -exp all
//
// -json FILE additionally writes the selected experiment's report as
// JSON where one is defined: hotpath (docs/perf.md; the committed
// BENCH_5.json is an older run of it, frozen), vshards (BENCH_7.json),
// each workload
// scenario, and workloads (the combined BENCH_8.json artifact,
// docs/workloads.md).
//
// Reported durations divide by the time scale for comparison with the
// paper; bandwidths multiply. The normalized (paper-comparable) value is
// printed alongside the raw measurement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"blob/internal/bench"
	"blob/internal/netsim"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig3a|fig3b|fig3c|ablations|hotpath|vshards|ingest|swarm|timetravel|workloads|chaos|all")
	iters := flag.Int("iters", 3, "iterations per measured point")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	jsonPath := flag.String("json", "", "write the hotpath report to this file as JSON")
	flag.Parse()

	sc := bench.DefaultScale()
	sc.Iterations = *iters

	providers := []int{10, 20, 40}
	segments := []uint64{1, 4, 16, 64, 256}
	clients := []int{1, 2, 4, 8, 12, 16, 20}
	if *quick {
		providers = []int{4, 8}
		segments = []uint64{1, 16, 64}
		clients = []int{1, 4, 8}
		sc.BlobPages = 1 << 18
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n=== %s ===\n", name)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("fig3a", func() error { return fig3Meta(true, providers, segments, sc) })
	run("fig3b", func() error { return fig3Meta(false, providers, segments, sc) })
	run("fig3c", func() error { return fig3c(clients, sc, *quick) })
	run("ablations", func() error { return ablations(sc, *quick) })
	run("hotpath", func() error { return hotpath(sc, *quick, *jsonPath) })
	vshardsJSON := ""
	if *exp == "vshards" {
		vshardsJSON = *jsonPath
	}
	run("vshards", func() error { return vshards(*quick, vshardsJSON) })
	// The workload scenarios (docs/workloads.md) write their report only
	// when selected directly, like vshards.
	scenarioJSON := func(name string) string {
		if *exp == name {
			return *jsonPath
		}
		return ""
	}
	wp := bench.DefaultWorkloadParams()
	if *quick {
		wp = bench.QuickWorkloadParams()
	}
	run("ingest", func() error { return ingest(wp, scenarioJSON("ingest")) })
	run("swarm", func() error { return swarm(wp, scenarioJSON("swarm")) })
	run("timetravel", func() error { return timetravel(wp, scenarioJSON("timetravel")) })
	run("workloads", func() error { return workloads(wp, scenarioJSON("workloads")) })
	run("chaos", func() error { return chaos(*quick, scenarioJSON("chaos")) })

	known := map[string]bool{
		"all": true, "fig3a": true, "fig3b": true, "fig3c": true, "ablations": true,
		"hotpath": true, "vshards": true, "ingest": true, "swarm": true,
		"timetravel": true, "workloads": true, "chaos": true,
	}
	if !known[*exp] {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// writeJSON writes a report artifact when a path was requested.
func writeJSON(jsonPath string, rep any) error {
	if jsonPath == "" {
		return nil
	}
	j, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(j, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", jsonPath)
	return nil
}

// ingest runs the streaming-ingestion scenario: reader p99 against a
// pinned snapshot with continuous epoch ingestion on vs off.
func ingest(wp bench.WorkloadParams, jsonPath string) error {
	rep, err := bench.AblateIngest(wp.IngestReaders, wp.IngestReadsPerReader)
	if err != nil {
		return err
	}
	printIngest(rep)
	return writeJSON(jsonPath, rep)
}

func printIngest(rep bench.IngestReport) {
	fmt.Printf("Pinned snapshot readers under streaming ingestion (%d readers x %d tile reads, %dx%d tiles of %.0f KB)\n",
		rep.Readers, rep.ReadsPerReader, rep.TilesX, rep.TilesY, rep.TileKB)
	fmt.Printf("latencies carry the 1/%d simulation time scale; snapshots byte-stable: %v\n\n",
		netsim.TimeScale, rep.SnapshotStable)
	for _, p := range rep.Points() {
		fmt.Printf("   %-36s %10.2f %s\n", p.Name, p.Value, p.Unit)
	}
}

// swarm runs the Galaxy-Zoo tiny-read scenario.
func swarm(wp bench.WorkloadParams, jsonPath string) error {
	rep, err := bench.AblateSwarm(wp.SwarmReaders, wp.SwarmReadsPerReader)
	if err != nil {
		return err
	}
	printSwarm(rep)
	return writeJSON(jsonPath, rep)
}

func printSwarm(rep bench.SwarmReport) {
	fmt.Printf("Galaxy-Zoo swarm: %d readers x %d random %d-byte cutout reads of one hot version\n",
		rep.Readers, rep.ReadsPerReader, rep.TileBytes)
	fmt.Printf("rates carry the 1/%d simulation time scale (multiply to compare); verified: %v\n\n",
		netsim.TimeScale, rep.Verified)
	for _, p := range rep.Points() {
		fmt.Printf("   %-36s %10.2f %s\n", p.Name, p.Value, p.Unit)
	}
}

// timetravel runs the version-distance diff scenario.
func timetravel(wp bench.WorkloadParams, jsonPath string) error {
	rep, err := bench.AblateTimeTravel(wp.TimeTravelEpochs, wp.TimeTravelDistances, wp.TimeTravelIters, wp.TimeTravelWorkers)
	if err != nil {
		return err
	}
	printTimeTravel(rep)
	return writeJSON(jsonPath, rep)
}

func printTimeTravel(rep bench.TimeTravelReport) {
	fmt.Printf("Time-travel diffs: %d epochs captured, diff(last-d, last) per distance d, %d workers\n",
		rep.Epochs, rep.Workers)
	fmt.Printf("ground truth (injected transients) verified: %v\n\n", rep.GroundTruthVerified)
	for _, p := range rep.Points {
		fmt.Printf("   distance %2d: %8.2f ms/diff  %8.2f MB/s  %3d candidate(s)\n",
			p.Distance, p.DiffMeanMs, p.MBPerS, p.Candidates)
	}
}

// workloads runs all three scenarios and writes the combined
// BENCH_8.json artifact.
func workloads(wp bench.WorkloadParams, jsonPath string) error {
	rep, err := bench.RunWorkloads(wp)
	if err != nil {
		return err
	}
	printIngest(rep.Ingest)
	fmt.Println()
	printSwarm(rep.Swarm)
	fmt.Println()
	printTimeTravel(rep.TimeTravel)
	return writeJSON(jsonPath, rep)
}

// chaos runs the gray-failure matrix (docs/robustness.md) and
// optionally writes the BENCH_10.json artifact with the two robustness
// gates: stalled-replica p99 within 3x healthy (hedging + breakers
// on), no-fault hedge overhead under 5% extra provider requests.
func chaos(quick bool, jsonPath string) error {
	reads := 120
	if quick {
		reads = 40
	}
	rep, err := bench.AblateChaos(reads)
	if err != nil {
		return err
	}
	fmt.Printf("Gray-failure matrix: %d providers, %dx replication, %d-page segment, %d reads/cell\n",
		rep.Providers, rep.Replicas, rep.SegPages, rep.Reads)
	fmt.Printf("latencies carry the 1/%d simulation time scale; breakers enabled in every cell\n\n", netsim.TimeScale)
	for _, p := range rep.Points() {
		fmt.Printf("   %-44s %10.2f %s\n", p.Name, p.Value, p.Unit)
	}
	for _, s := range rep.Scenarios {
		if s.HedgedReads > 0 || s.BreakersOpened > 0 {
			fmt.Printf("   [%s] hedged %d, wins %d, breaker-opens %d\n",
				s.Name, s.HedgedReads, s.HedgeWins, s.BreakersOpened)
		}
	}
	return writeJSON(jsonPath, rep)
}

// hotpath runs the data hot-path measurement (docs/perf.md) and
// optionally writes its report as JSON.
func hotpath(sc bench.Scale, quick bool, jsonPath string) error {
	writes, seg := 24, uint64(64)
	if quick {
		writes = 8
	}
	rep, err := bench.AblateHotPath(writes, seg, sc)
	if err != nil {
		return err
	}
	fmt.Printf("Data hot path: plain, traced, monitored (%d-page segments, %d writes/mode)\n",
		rep.SegPages, rep.Writes)
	fmt.Printf("latencies carry the 1/%d simulation time scale; round trips verified: %v\n\n",
		netsim.TimeScale, rep.RoundTripsVerified)
	for _, p := range rep.Points() {
		fmt.Printf("   %-32s %10.2f %s\n", p.Name, p.Value, p.Unit)
	}
	return writeJSON(jsonPath, rep)
}

// vshards sweeps the version-plane shard count under a fixed writer
// population (docs/vmanager-group.md) and optionally writes the
// BENCH_7.json shard-scaling artifact.
func vshards(quick bool, jsonPath string) error {
	shardCounts := []int{1, 2, 4}
	replicas, writers, perWriter := 2, 8, 40
	delay := 200 * time.Microsecond
	if quick {
		writers, perWriter = 4, 15
	}
	rep, err := bench.AblateVmanagerShards(shardCounts, replicas, writers, perWriter, delay)
	if err != nil {
		return err
	}
	fmt.Printf("Sharded version plane publish throughput (%d writers x %d publishes, %d replicas/shard, %.0f us append delay)\n\n",
		rep.Writers, rep.PerWriter, replicas, rep.AppendDelayMicro)
	for _, p := range rep.Points {
		fmt.Printf("   %d shard(s): %8.0f publishes/s  (%.2fx vs 1 shard; blobs/shard %v)\n",
			p.Shards, p.PublishesPerSec, p.SpeedupVsOne, p.BlobsPerShard)
	}
	if jsonPath != "" {
		j, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(j, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return nil
}

func fig3Meta(read bool, providers []int, segments []uint64, sc bench.Scale) error {
	what := "READ"
	if !read {
		what = "WRITE"
	}
	fmt.Printf("Metadata %s overhead, single client (paper Figure 3%s)\n", what, map[bool]string{true: "a", false: "b"}[read])
	fmt.Printf("blob: %d pages x %d KB (tree height %d); time scale 1/%d\n\n",
		sc.BlobPages, sc.PageSize/1024, treeHeight(sc.BlobPages), netsim.TimeScale)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "segment\t")
	for _, p := range providers {
		fmt.Fprintf(w, "%d providers\t", p)
	}
	fmt.Fprintln(w, "")
	for _, seg := range segments {
		fmt.Fprintf(w, "%d KB\t", seg*sc.PageSize/1024)
		for _, p := range providers {
			var pt bench.MetaPoint
			var err error
			if read {
				pt, err = bench.Fig3aMetadataRead(p, seg, sc)
			} else {
				pt, err = bench.Fig3bMetadataWrite(p, seg, sc)
			}
			if err != nil {
				return err
			}
			norm := pt.MeanTime.Seconds() / netsim.TimeScale
			fmt.Fprintf(w, "%.1fms (%.4fs)\t", pt.MeanTime.Seconds()*1e3, norm)
		}
		fmt.Fprintln(w, "")
	}
	w.Flush()
	fmt.Println("\n(parenthesized values are normalized to the paper's time base)")
	return nil
}

func fig3c(clients []int, sc bench.Scale, quick bool) error {
	fs := bench.DefaultFig3cScale()
	if quick {
		fs.StorageNodes = 8
		fs.Iterations = 3
	}
	fmt.Printf("Throughput of concurrent clients (paper Figure 3c)\n")
	fmt.Printf("%d storage nodes, %d KB segments, %d iterations/client; bandwidth scale x%d\n\n",
		fs.StorageNodes, fs.SegPages*fs.PageSize/1024, fs.Iterations, netsim.TimeScale)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tRead\tWrite\tRead (cached metadata)\t")
	for _, n := range clients {
		fmt.Fprintf(w, "%d\t", n)
		for _, mode := range []bench.Mode{bench.ModeRead, bench.ModeWrite, bench.ModeReadCached} {
			pt, err := bench.Fig3cThroughput(n, mode, fs, sc)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%.1f MB/s (%.1f)\t", pt.PerClientMBps*netsim.TimeScale, pt.PerClientMBps)
			_ = mode
		}
		fmt.Fprintln(w, "")
	}
	w.Flush()
	fmt.Println("\n(per-client average; first value normalized to the paper's bandwidth base)")
	return nil
}

func ablations(sc bench.Scale, quick bool) error {
	prov := 10
	seg := uint64(64)
	if quick {
		prov, seg = 4, 16
	}
	groups := []struct {
		name string
		fn   func() ([]bench.AblationPoint, error)
	}{
		{"RPC aggregation (paper §V.A)", func() ([]bench.AblationPoint, error) {
			return bench.AblateBatching(prov, seg, sc)
		}},
		{"client metadata cache (paper §V.D)", func() ([]bench.AblationPoint, error) {
			return bench.AblateCache(prov, seg, sc)
		}},
		{"placement strategy", func() ([]bench.AblationPoint, error) {
			return bench.AblatePlacement(prov, 20, seg, sc)
		}},
		{"page size (striping vs streaming, §V.A)", func() ([]bench.AblationPoint, error) {
			return bench.AblatePageSize(prov, 256<<10, []uint64{4 << 10, 16 << 10, 64 << 10}, sc.Iterations)
		}},
		{"data replication factor", func() ([]bench.AblationPoint, error) {
			return bench.AblateReplication(prov, 16, []int{1, 2, 3}, sc)
		}},
		{"provider persistence (RAM vs diskstore)", func() ([]bench.AblationPoint, error) {
			return bench.AblatePersistence(prov, 8, seg, sc)
		}},
		{"restart recovery (sidecar index vs full replay)", func() ([]bench.AblationPoint, error) {
			n := 64
			if quick {
				n = 16
			}
			return bench.AblateRestart(n, 4<<20)
		}},
		{"replica repair (wiped provider, docs/replication.md)", func() ([]bench.AblationPoint, error) {
			w := 8
			if quick {
				w = 4
			}
			return bench.AblateRepair(prov, w, seg, sc)
		}},
		{"erasure coding vs 2x replication (docs/erasure.md)", func() ([]bench.AblationPoint, error) {
			w := 8
			if quick {
				w = 4
			}
			return bench.AblateErasure(w, seg, sc)
		}},
	}
	for _, g := range groups {
		fmt.Printf("-- %s\n", g.name)
		pts, err := g.fn()
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("   %-48s %8.2f %s\n", p.Name, p.Value, p.Unit)
		}
	}
	return nil
}

func treeHeight(pages uint64) int {
	h := 1
	for s := pages; s > 1; s /= 2 {
		h++
	}
	return h
}
