package bench

// Hot-path measurement (docs/perf.md): the data path — scatter-gather
// codec plus pipelined write protocol — on the simulated Grid'5000
// fabric, alone and under the two observability taxes (span sampling,
// a polling monitor): write/read latency (mean and p99), process-wide
// allocations and allocated bytes per operation, with every read
// verified byte-identical against what was written. The committed
// BENCH_5.json is the frozen record of this experiment's last run
// against the since-deleted legacy codec.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/monitor"
	"blob/internal/rpc"
	"blob/internal/trace"
)

// HotPathStats is one mode's measurement.
type HotPathStats struct {
	Mode             string  `json:"mode"`
	WriteMeanMs      float64 `json:"write_mean_ms"`
	WriteP99Ms       float64 `json:"write_p99_ms"`
	ReadMeanMs       float64 `json:"read_mean_ms"`
	ReadP99Ms        float64 `json:"read_p99_ms"`
	WriteAllocsPerOp float64 `json:"write_allocs_per_op"`
	WriteKBPerOp     float64 `json:"write_kb_per_op"`
	ReadAllocsPerOp  float64 `json:"read_allocs_per_op"`
	ReadKBPerOp      float64 `json:"read_kb_per_op"`
}

// HotPathReport is the experiment's result, serialized by cmd/blobbench
// -exp hotpath -json.
type HotPathReport struct {
	SegPages  uint64 `json:"seg_pages"`
	PageSize  uint64 `json:"page_size"`
	Providers int    `json:"providers"`
	Writes    int    `json:"writes"`

	// Plain is the data path with tracing off and no monitor.
	Plain HotPathStats `json:"plain"`
	// Traced is the same path with a 1-in-64 sampling span tracer
	// attached (docs/observability.md) — the recommended production
	// sampling rate, measured so the tracing tax stays visible.
	Traced HotPathStats `json:"traced"`
	// Monitored is the same path while a cluster monitor polls the
	// deployment's MStats/MLatency/MEvents/MVmStatus every 50ms — far
	// more aggressive than the production 1s default, so the measured
	// tax is an upper bound on what the health plane costs.
	Monitored HotPathStats `json:"monitored"`

	// TraceOverheadPct is (traced - plain) / plain write mean, in
	// percent: what 1-in-64 span sampling costs on the write hot path.
	TraceOverheadPct float64 `json:"trace_overhead_pct"`
	// MonitorOverheadPct is (monitored - plain) / plain read p99,
	// in percent: what the polling monitor costs the read tail. The
	// acceptance bar is <2%; negative values are run-to-run noise.
	MonitorOverheadPct float64 `json:"monitor_overhead_pct"`

	// RoundTripsVerified is true when every read in every mode returned
	// exactly the bytes its write stored.
	RoundTripsVerified bool `json:"round_trips_verified"`
}

// Points flattens the report for the text-table printers.
func (r HotPathReport) Points() []AblationPoint {
	pts := make([]AblationPoint, 0, 26)
	for _, st := range []HotPathStats{r.Plain, r.Traced, r.Monitored} {
		pts = append(pts,
			AblationPoint{Name: st.Mode + " write mean", Value: st.WriteMeanMs, Unit: "ms"},
			AblationPoint{Name: st.Mode + " write p99", Value: st.WriteP99Ms, Unit: "ms"},
			AblationPoint{Name: st.Mode + " read mean", Value: st.ReadMeanMs, Unit: "ms"},
			AblationPoint{Name: st.Mode + " read p99", Value: st.ReadP99Ms, Unit: "ms"},
			AblationPoint{Name: st.Mode + " write allocs/op", Value: st.WriteAllocsPerOp, Unit: "allocs"},
			AblationPoint{Name: st.Mode + " write KB/op", Value: st.WriteKBPerOp, Unit: "KB"},
			AblationPoint{Name: st.Mode + " read allocs/op", Value: st.ReadAllocsPerOp, Unit: "allocs"},
			AblationPoint{Name: st.Mode + " read KB/op", Value: st.ReadKBPerOp, Unit: "KB"},
		)
	}
	pts = append(pts,
		AblationPoint{Name: "trace overhead, write mean", Value: r.TraceOverheadPct, Unit: "%"},
		AblationPoint{Name: "monitor overhead, read p99", Value: r.MonitorOverheadPct, Unit: "%"},
	)
	return pts
}

// AblateHotPath measures the data hot path end to end in each mode.
// writes is the operation count per mode; each operation moves a
// segment of segPages pages. The metadata backend/processing delay
// models are disabled so the measurement isolates the data path; the
// fabric is the paper's Grid'5000 simulation, so latency numbers carry
// netsim.TimeScale like every other experiment.
func AblateHotPath(writes int, segPages uint64, sc Scale) (HotPathReport, error) {
	rep := HotPathReport{SegPages: segPages, PageSize: sc.PageSize, Providers: 4, Writes: writes}
	scHot := sc
	scHot.MetaPutDelay = 0
	scHot.MetaProcessDelay = 0
	rep.RoundTripsVerified = true

	// Every mode runs against one cluster instance (disjoint blobs), so
	// the comparison never carries fabric-instantiation variance.
	cl, err := grid5000Cluster(rep.Providers, scHot, -1)
	if err != nil {
		return rep, err
	}
	defer cl.Shutdown()

	for _, mode := range []string{"plain", "traced", "monitored"} {
		var mon *monitor.Monitor
		var mpool *rpc.Pool
		if mode == "monitored" {
			// The monitor polls the same deployment the ops run against,
			// from its own simulated host, at 20x the production rate.
			mpool = rpc.NewPool(cl.ClientOptions("bench-monitor").Network)
			mon = monitor.New(monitor.Config{
				Pool:     mpool,
				PMAddr:   cl.PMAddr,
				VMShards: cl.VMShardAddrs,
				Interval: 50 * time.Millisecond,
			})
			mon.Start()
		}
		st, ok, err := hotPathMode(cl, mode, writes, segPages, scHot)
		if mon != nil {
			mon.Close()
			mpool.Close()
		}
		if err != nil {
			return rep, err
		}
		if !ok {
			rep.RoundTripsVerified = false
		}
		switch mode {
		case "plain":
			rep.Plain = st
		case "traced":
			rep.Traced = st
		case "monitored":
			rep.Monitored = st
		}
	}

	// Positive means the tax made the operation slower.
	overhead := func(plain, taxed float64) float64 {
		if plain <= 0 {
			return 0
		}
		return (taxed - plain) / plain * 100
	}
	rep.TraceOverheadPct = overhead(rep.Plain.WriteMeanMs, rep.Traced.WriteMeanMs)
	rep.MonitorOverheadPct = overhead(rep.Plain.ReadP99Ms, rep.Monitored.ReadP99Ms)
	return rep, nil
}

// hotPathMode runs one mode's write+read sweep and returns its stats
// and whether all round trips were byte-identical. Modes: "plain"
// (tracing off), "traced" (1-in-64 span sampling), "monitored" (the
// caller keeps a cluster monitor polling).
func hotPathMode(cl *cluster.Cluster, mode string, writes int, segPages uint64, sc Scale) (HotPathStats, bool, error) {
	st := HotPathStats{Mode: mode}
	ctx := context.Background()
	opts := cl.ClientOptions("hotpath-" + st.Mode)
	if mode == "traced" {
		opts.Tracer = trace.New("hotpath-traced", trace.DefaultRing, 64)
	}
	c, err := core.NewClient(ctx, opts)
	if err != nil {
		return st, false, err
	}
	defer c.Close()
	b, err := c.CreateBlob(ctx, sc.PageSize, sc.BlobPages*sc.PageSize)
	if err != nil {
		return st, false, err
	}

	segBytes := segPages * sc.PageSize
	rng := rand.New(rand.NewSource(42))
	segments := make([][]byte, writes)
	for i := range segments {
		segments[i] = make([]byte, segBytes)
		rng.Read(segments[i])
	}
	offset := func(i int) uint64 { return uint64(i) * 2 * segBytes }

	// Warm-up op (connections, pools, provider directory) outside the
	// measured window.
	warm := make([]byte, segBytes)
	if _, err := b.Write(ctx, warm, uint64(writes)*2*segBytes); err != nil {
		return st, false, err
	}

	var ms runtime.MemStats
	lat := make([]time.Duration, writes)

	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0, b0 := ms.Mallocs, ms.TotalAlloc
	for i := 0; i < writes; i++ {
		t0 := time.Now()
		if _, err := b.Write(ctx, segments[i], offset(i)); err != nil {
			return st, false, err
		}
		lat[i] = time.Since(t0)
	}
	runtime.ReadMemStats(&ms)
	st.WriteAllocsPerOp = float64(ms.Mallocs-m0) / float64(writes)
	st.WriteKBPerOp = float64(ms.TotalAlloc-b0) / float64(writes) / 1024
	st.WriteMeanMs, st.WriteP99Ms = latStats(lat)

	verified := true
	got := make([]byte, segBytes)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0, b0 = ms.Mallocs, ms.TotalAlloc
	for i := 0; i < writes; i++ {
		t0 := time.Now()
		if _, err := b.ReadLatest(ctx, got, offset(i)); err != nil {
			return st, false, err
		}
		lat[i] = time.Since(t0)
		if !bytes.Equal(got, segments[i]) {
			verified = false
		}
	}
	runtime.ReadMemStats(&ms)
	st.ReadAllocsPerOp = float64(ms.Mallocs-m0) / float64(writes)
	st.ReadKBPerOp = float64(ms.TotalAlloc-b0) / float64(writes) / 1024
	st.ReadMeanMs, st.ReadP99Ms = latStats(lat)
	if !verified {
		return st, false, fmt.Errorf("bench: %s mode served bytes differing from what was written", st.Mode)
	}
	return st, true, nil
}

// latStats returns mean and p99 in milliseconds.
func latStats(lat []time.Duration) (mean, p99 float64) {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	mean = total.Seconds() / float64(len(sorted)) * 1e3
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	p99 = sorted[idx].Seconds() * 1e3
	return mean, p99
}
