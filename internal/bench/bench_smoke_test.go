package bench

import (
	"testing"
	"time"
)

// smokeScale shrinks everything so the harness itself is verified in
// milliseconds; the real figures use DefaultScale.
func smokeScale() Scale {
	return Scale{
		PageSize:     4 << 10,
		BlobPages:    1 << 16,
		MetaPutDelay: 5 * time.Microsecond,
		Iterations:   2,
	}
}

func TestFig3aPointRuns(t *testing.T) {
	pt, err := Fig3aMetadataRead(3, 8, smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if pt.MeanTime <= 0 {
		t.Errorf("mean time = %v", pt.MeanTime)
	}
	if pt.SegmentKB != 32 {
		t.Errorf("segment = %dKB, want 32", pt.SegmentKB)
	}
}

func TestFig3bPointRuns(t *testing.T) {
	pt, err := Fig3bMetadataWrite(3, 8, smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if pt.MeanTime <= 0 {
		t.Errorf("mean time = %v", pt.MeanTime)
	}
}

func TestFig3cPointRuns(t *testing.T) {
	fs := Fig3cScale{StorageNodes: 4, PageSize: 4 << 10, RegionPages: 256, SegPages: 4, Iterations: 3}
	for _, mode := range []Mode{ModeRead, ModeWrite, ModeReadCached} {
		pt, err := Fig3cThroughput(2, mode, fs, smokeScale())
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if pt.PerClientMBps <= 0 {
			t.Errorf("%v: per-client bandwidth = %v", mode, pt.PerClientMBps)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeRead.String() != "Read" || ModeWrite.String() != "Write" {
		t.Error("mode names wrong")
	}
	if ModeReadCached.String() != "Read (cached metadata)" {
		t.Error("cached mode name wrong")
	}
}

func TestAblationsRun(t *testing.T) {
	sc := smokeScale()
	if pts, err := AblateCache(2, 8, sc); err != nil || len(pts) != 2 {
		t.Fatalf("cache ablation: %v %v", pts, err)
	}
	if pts, err := AblatePlacement(4, 6, 4, sc); err != nil || len(pts) != 3 {
		t.Fatalf("placement ablation: %v %v", pts, err)
	}
	if pts, err := AblateReplication(3, 4, []int{1, 2}, sc); err != nil || len(pts) != 2 {
		t.Fatalf("replication ablation: %v %v", pts, err)
	}
	if pts, err := AblatePageSize(2, 64<<10, []uint64{16 << 10, 32 << 10}, 1); err != nil || len(pts) != 2 {
		t.Fatalf("page size ablation: %v %v", pts, err)
	}
	if pts, err := AblateBatching(2, 8, sc); err != nil || len(pts) != 2 {
		t.Fatalf("batching ablation: %v %v", pts, err)
	}
	pts, err := AblatePersistence(2, 2, 4, sc)
	if err != nil || len(pts) != 6 {
		t.Fatalf("persistence ablation: %v %v", pts, err)
	}
	for _, p := range pts {
		if p.Value <= 0 {
			t.Errorf("persistence point %q = %v %s", p.Name, p.Value, p.Unit)
		}
	}
}

func TestAblateRestartRuns(t *testing.T) {
	pts, err := AblateRestart(4, 64<<10)
	if err != nil || len(pts) != 5 {
		t.Fatalf("restart ablation: %v %v", pts, err)
	}
	byName := map[string]float64{}
	for _, p := range pts {
		byName[p.Name] = p.Value
	}
	// The whole point: a sidecar restart reads far less segment data than
	// a full replay (only the active tail, if anything).
	side := byName["segment bytes read, sidecar index"]
	full := byName["segment bytes read, full replay"]
	if full <= 0 || side >= full/2 {
		t.Errorf("sidecar restart read %v MB of segment data vs %v MB full replay", side, full)
	}
}

func TestSegmentOffsetsDisjointAcrossClients(t *testing.T) {
	fs := DefaultFig3cScale()
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		off := segmentOffset(i, 0, 20, fs)
		if seen[off] {
			t.Fatalf("clients collide at offset %d", off)
		}
		seen[off] = true
		if off%(fs.SegPages*fs.PageSize) != 0 {
			t.Errorf("offset %d not segment aligned", off)
		}
	}
}

func TestAblateRepairRuns(t *testing.T) {
	pts, err := AblateRepair(3, 3, 4, smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0].Value <= 0 {
		t.Errorf("time to full redundancy = %v", pts[0].Value)
	}
	if pts[2].Value != 100 {
		t.Errorf("healthy verify pass bloom-skip rate = %v%%, want 100", pts[2].Value)
	}
}

// TestAblateErasureRuns verifies the erasure-vs-replication ablation
// harness end to end at smoke scale, including its two acceptance
// assertions: rs(4,2) stores less and its repair pushes fewer bytes
// into the degraded provider than 2x replication.
func TestAblateErasureRuns(t *testing.T) {
	pts, err := AblateErasure(4, 8, smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, p := range pts {
		byName[p.Name] = p.Value
	}
	if o := byName["rs(4,2): storage overhead"]; o >= byName["2x replication: storage overhead"] {
		t.Errorf("rs overhead %v not below replication %v", o, byName["2x replication: storage overhead"])
	}
	if r := byName["rs(4,2): repair bytes into degraded provider"]; r >= byName["2x replication: repair bytes into degraded provider"] {
		t.Errorf("rs repair ingest %v MB not below replication %v MB",
			r, byName["2x replication: repair bytes into degraded provider"])
	}
}

func TestAblateHotPathRuns(t *testing.T) {
	rep, err := AblateHotPath(3, 8, smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RoundTripsVerified {
		t.Error("hot-path round trips not verified byte-identical")
	}
	if rep.Plain.WriteAllocsPerOp <= 0 || rep.Traced.WriteAllocsPerOp <= 0 {
		t.Errorf("degenerate alloc measurements: %+v", rep)
	}
	if rep.Monitored.ReadP99Ms <= 0 {
		t.Errorf("monitored mode did not run: %+v", rep.Monitored)
	}
	if len(rep.Points()) == 0 {
		t.Error("no ablation points")
	}
}

func TestAblateIngestRuns(t *testing.T) {
	rep, err := AblateIngest(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotStable {
		t.Error("pinned snapshots not byte-stable")
	}
	if rep.Quiescent.Reads != 24 || rep.Ingesting.Reads != 24 {
		t.Errorf("read counts: %+v / %+v", rep.Quiescent, rep.Ingesting)
	}
	if rep.Ingesting.EpochsPublished <= 0 {
		t.Error("ingestion phase published no epochs")
	}
	if rep.P99RatioPct <= 0 {
		t.Errorf("p99 ratio = %v", rep.P99RatioPct)
	}
}

func TestAblateSwarmRuns(t *testing.T) {
	rep, err := AblateSwarm(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Error("swarm reads not verified against the catalog")
	}
	if rep.TotalReads != 60 || rep.ReadsPerSec <= 0 {
		t.Errorf("total=%d rate=%v", rep.TotalReads, rep.ReadsPerSec)
	}
	if rep.AllocsPerRead <= 0 || rep.KBPerRead <= 0 {
		t.Errorf("degenerate alloc budget: %+v", rep)
	}
}

func TestAblateTimeTravelRuns(t *testing.T) {
	rep, err := AblateTimeTravel(5, []int{1, 4}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GroundTruthVerified {
		t.Error("diffs not verified against injected transients")
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points: %+v", rep.Points)
	}
	for _, p := range rep.Points {
		if p.DiffMeanMs <= 0 || p.MBPerS <= 0 {
			t.Errorf("distance %d: degenerate measurement %+v", p.Distance, p)
		}
		if p.Candidates < 1 {
			t.Errorf("distance %d: the injected supernova produced no candidates", p.Distance)
		}
	}
}

// TestAblateChaosRuns verifies the gray-failure matrix harness end to
// end at smoke scale. Latency ratios are not asserted here — CI
// machines are too noisy for that; the committed BENCH_10.json carries
// the gate numbers — but the structural claims must hold: every cell's
// reads verify byte-identical under fault, the stalled cell hedges,
// and hedging costs no extra requests when nothing is wrong.
func TestAblateChaosRuns(t *testing.T) {
	rep, err := AblateChaos(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 5 {
		t.Fatalf("scenarios: %+v", rep.Scenarios)
	}
	var healthyOff, healthyOn, stalled *ChaosScenario
	for i := range rep.Scenarios {
		s := &rep.Scenarios[i]
		if !s.Verified {
			t.Errorf("%q: reads not verified byte-identical", s.Name)
		}
		if s.ReadP99Ms <= 0 || s.ProviderGets <= 0 {
			t.Errorf("%q: degenerate measurement %+v", s.Name, s)
		}
		switch {
		case s.Fault == "none" && !s.Hedging:
			healthyOff = s
		case s.Fault == "none" && s.Hedging:
			healthyOn = s
		case s.Fault == "stall":
			stalled = s
		}
	}
	if stalled == nil || stalled.HedgedReads == 0 || stalled.HedgeWins == 0 {
		t.Errorf("stalled cell never hedged: %+v", stalled)
	}
	if healthyOff.HedgedReads != 0 {
		t.Errorf("hedging-off cell recorded hedges: %+v", healthyOff)
	}
	// The no-fault overhead gate, with slack for a hedge or two fired
	// by scheduler noise.
	if healthyOn.ProviderGets > healthyOff.ProviderGets*110/100 {
		t.Errorf("no-fault hedge overhead: %d gets hedged vs %d unhedged",
			healthyOn.ProviderGets, healthyOff.ProviderGets)
	}
}

func TestAblateVmanagerShardsRuns(t *testing.T) {
	rep, err := AblateVmanagerShards([]int{1, 2}, 2, 2, 4, 50*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.PublishesPerSec <= 0 || p.Publishes != 8 {
			t.Errorf("shards %d: %+v", p.Shards, p)
		}
		total := 0
		for _, n := range p.BlobsPerShard {
			total += n
		}
		if total != 2 {
			t.Errorf("shards %d: blob spread %v does not cover 2 writers", p.Shards, p.BlobsPerShard)
		}
	}
	if rep.Points[0].SpeedupVsOne != 1 {
		t.Errorf("baseline speedup = %v, want 1", rep.Points[0].SpeedupVsOne)
	}
}
