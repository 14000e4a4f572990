package blob

// Benchmark harness regenerating the paper's evaluation (§V, Figure 3).
// Each benchmark reports the paper's metric through b.ReportMetric:
//
//   - Figure 3(a): metadata READ overhead (ms) vs segment size, for
//     10/20/40 storage nodes, single client, cache disabled;
//   - Figure 3(b): metadata WRITE overhead (ms), same sweep;
//   - Figure 3(c): average per-client bandwidth (MB/s) vs number of
//     concurrent clients, series Read / Write / Read (cached metadata).
//
// Absolute numbers come from the simulated Grid'5000 fabric
// (internal/netsim) at reduced scale; the shapes are the reproduction
// target. cmd/blobbench prints the full tables, EXPERIMENTS.md records
// paper-vs-measured values.
//
// Ablation benchmarks cover the design choices: RPC aggregation, client
// metadata cache, placement strategy, page size and replication factor.

import (
	"fmt"
	"testing"

	"blob/internal/bench"
)

// figScale returns the benchmark scaling; kept small enough that the
// whole -bench=. sweep finishes in minutes.
func figScale() bench.Scale {
	sc := bench.DefaultScale()
	sc.Iterations = 3
	return sc
}

// fig3SegmentsPages mirrors the paper's 64 KB..16 MB sweep at 64 KB
// pages: 1..256 pages, in the same powers of four.
var fig3SegmentsPages = []uint64{1, 4, 16, 64, 256}

// fig3Providers mirrors the paper's 10/20/40 storage-node deployments.
var fig3Providers = []int{10, 20, 40}

func BenchmarkFig3aMetadataRead(b *testing.B) {
	sc := figScale()
	for _, prov := range fig3Providers {
		for _, seg := range fig3SegmentsPages {
			name := fmt.Sprintf("providers=%d/segKB=%d", prov, seg*sc.PageSize/1024)
			b.Run(name, func(b *testing.B) {
				var last bench.MetaPoint
				for i := 0; i < b.N; i++ {
					pt, err := bench.Fig3aMetadataRead(prov, seg, sc)
					if err != nil {
						b.Fatal(err)
					}
					last = pt
				}
				b.ReportMetric(last.MeanTime.Seconds()*1e3, "ms/op-meta-read")
			})
		}
	}
}

func BenchmarkFig3bMetadataWrite(b *testing.B) {
	sc := figScale()
	for _, prov := range fig3Providers {
		for _, seg := range fig3SegmentsPages {
			name := fmt.Sprintf("providers=%d/segKB=%d", prov, seg*sc.PageSize/1024)
			b.Run(name, func(b *testing.B) {
				var last bench.MetaPoint
				for i := 0; i < b.N; i++ {
					pt, err := bench.Fig3bMetadataWrite(prov, seg, sc)
					if err != nil {
						b.Fatal(err)
					}
					last = pt
				}
				b.ReportMetric(last.MeanTime.Seconds()*1e3, "ms/op-meta-write")
			})
		}
	}
}

// fig3cClients mirrors the paper's 0..20 concurrent-client x-axis.
var fig3cClients = []int{1, 4, 8, 16, 20}

func BenchmarkFig3cThroughput(b *testing.B) {
	sc := figScale()
	fs := bench.DefaultFig3cScale()
	fs.Iterations = 5
	for _, mode := range []bench.Mode{bench.ModeRead, bench.ModeWrite, bench.ModeReadCached} {
		for _, n := range fig3cClients {
			name := fmt.Sprintf("%s/clients=%d", sanitize(mode.String()), n)
			b.Run(name, func(b *testing.B) {
				var last bench.ThroughputPoint
				for i := 0; i < b.N; i++ {
					pt, err := bench.Fig3cThroughput(n, mode, fs, sc)
					if err != nil {
						b.Fatal(err)
					}
					last = pt
				}
				b.ReportMetric(last.PerClientMBps, "MB/s/client")
				b.ReportMetric(last.AggregateMBps, "MB/s-total")
			})
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkAblationBatching(b *testing.B) {
	sc := figScale()
	for i := 0; i < b.N; i++ {
		pts, err := bench.AblateBatching(10, 64, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range pts {
				b.ReportMetric(p.Value, metricName(p))
			}
		}
	}
}

func BenchmarkAblationCache(b *testing.B) {
	sc := figScale()
	for i := 0; i < b.N; i++ {
		pts, err := bench.AblateCache(10, 64, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range pts {
				b.ReportMetric(p.Value, metricName(p))
			}
		}
	}
}

func BenchmarkAblationPageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := bench.AblatePageSize(10, 256<<10, []uint64{4 << 10, 16 << 10, 64 << 10}, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range pts {
				b.ReportMetric(p.Value, metricName(p))
			}
		}
	}
}

func BenchmarkAblationReplication(b *testing.B) {
	sc := figScale()
	for i := 0; i < b.N; i++ {
		pts, err := bench.AblateReplication(10, 16, []int{1, 2, 3}, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range pts {
				b.ReportMetric(p.Value, metricName(p))
			}
		}
	}
}

func BenchmarkAblationPlacement(b *testing.B) {
	sc := figScale()
	for i := 0; i < b.N; i++ {
		pts, err := bench.AblatePlacement(10, 20, 16, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range pts {
				b.ReportMetric(p.Value, metricName(p))
			}
		}
	}
}

// metricName compresses an ablation point name into a benchstat-safe
// unit label.
func metricName(p bench.AblationPoint) string {
	out := make([]rune, 0, len(p.Name))
	for _, r := range p.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == ',':
			out = append(out, '-')
		}
	}
	return string(out) + "-" + p.Unit
}

func BenchmarkAblationHotPath(b *testing.B) {
	sc := figScale()
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblateHotPath(8, 64, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rep.Plain.WriteAllocsPerOp, "write-allocs/op")
			b.ReportMetric(rep.Plain.ReadAllocsPerOp, "read-allocs/op")
			b.ReportMetric(rep.Plain.WriteKBPerOp, "write-KB/op")
			b.ReportMetric(rep.Plain.ReadKBPerOp, "read-KB/op")
			b.ReportMetric(rep.Plain.WriteMeanMs, "write-mean-ms")
		}
	}
}

func BenchmarkAblationErasure(b *testing.B) {
	sc := figScale()
	for i := 0; i < b.N; i++ {
		pts, err := bench.AblateErasure(8, 16, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range pts {
				b.ReportMetric(p.Value, metricName(p))
			}
		}
	}
}

// The workload-suite scenarios (docs/workloads.md) at benchmark scale:
// reduced read counts so -bench=. stays in CI budget; cmd/blobbench
// runs the full-scale versions for BENCH_8.json.

func BenchmarkAblationIngest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblateIngest(4, 60)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range rep.Points() {
				b.ReportMetric(p.Value, metricName(p))
			}
		}
	}
}

func BenchmarkAblationSwarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblateSwarm(8, 80)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range rep.Points() {
				b.ReportMetric(p.Value, metricName(p))
			}
		}
	}
}

func BenchmarkAblationTimeTravel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblateTimeTravel(6, []int{1, 4}, 1, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range rep.TablePoints() {
				b.ReportMetric(p.Value, metricName(p))
			}
		}
	}
}
