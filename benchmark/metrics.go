package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef names one metric. BENCHMARK.json repeats these tables for
// the driver; bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// End-to-end metrics: what a user of the store sees. Every workload
// reports every one (the contract's rule), so the names are generic:
// the op is the workload's — reads on the read workloads, writes on
// ingest-write, and on survey-mixed the reader's op for p50_ms with
// both roles counted in ops_s and cpu_ms_per_op. The time metrics'
// bounds are as wide as the contract allows: on the shared reference
// machine whole runs of one binary differ by 10-25 % for minutes at a
// time (README.md "Baseline").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.05},
}

// Per-layer metrics, named <package>.<what>. Every workload reports
// every one; a layer the workload does not touch reports 0.
var perLayer = []metricDef{
	{"core.self_ms", "ms", "lower", 0},
	{"core.unattributed_ms", "ms", "lower", 0},
	{"core.allocs_per_op", "count", "lower", 0},
	{"core.alloc_kb_per_op", "KiB", "lower", 0},
	{"core.read_p50_ms", "ms", "lower", 0},
	{"core.read_p99_ms", "ms", "lower", 0},
	{"core.write_p50_ms", "ms", "lower", 0},
	{"core.write_p99_ms", "ms", "lower", 0},
	{"core.hedges_per_kop", "count", "lower", 0},
	{"core.read_repairs_per_kop", "count", "lower", 0},
	{"vmanager.latest_ms", "ms", "lower", 0},
	{"vmanager.assign_ms", "ms", "lower", 0},
	{"vmanager.assign_exposed_ms", "ms", "lower", 0},
	{"vmanager.commit_ms", "ms", "lower", 0},
	{"vmanager.handler_ms_per_op", "ms", "lower", 0},
	{"mstore.readplan_ms", "ms", "lower", 0},
	{"mstore.cache_hit_ratio", "ratio", "higher", 0},
	{"mstore.store_ms", "ms", "lower", 0},
	{"dht.gets_per_read", "count", "lower", 0},
	{"dht.puts_per_write", "count", "lower", 0},
	{"dht.handler_ms_per_op", "ms", "lower", 0},
	{"rpc.echo_64b_us", "us", "lower", 0},
	{"rpc.echo_1mib_mbps", "MB/s", "higher", 0},
	{"rpc.calls_per_op", "count", "lower", 0},
	{"rpc.frames_per_op", "count", "lower", 0},
	{"rpc.wire_bytes_per_user_byte", "ratio", "lower", 0},
	{"provider.getpages_ms", "ms", "lower", 0},
	{"provider.push_ms", "ms", "lower", 0},
	{"provider.wait_ms", "ms", "lower", 0},
	{"provider.get_handler_ms_per_op", "ms", "lower", 0},
	{"provider.put_handler_ms_per_op", "ms", "lower", 0},
	{"provider.pages_served_per_read", "count", "lower", 0},
	{"diskstore.get_us_per_page", "us", "lower", 0},
	{"diskstore.put_us_per_page", "us", "lower", 0},
	{"erasure.encode_mbps", "MB/s", "higher", 0},
	{"erasure.reconstruct_mbps", "MB/s", "higher", 0},
	{"erasure.parity_bytes_per_user_byte", "ratio", "lower", 0},
	{"pmanager.handler_ms_per_op", "ms", "lower", 0},
	{"blobnode.provider_cpu_ms_per_op", "ms", "lower", 0},
	{"blobnode.vmanager_cpu_ms_per_op", "ms", "lower", 0},
	{"blobnode.pmanager_cpu_ms_per_op", "ms", "lower", 0},
	{"blobnode.rss_mb_max", "MiB", "lower", 0},
	{"loadgen.cpu_ms_per_op", "ms", "lower", 0},
	{"loadgen.late_p50_ms", "ms", "lower", 0},
	{"loadgen.late_max_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metricSet collects values against a table and refuses names the
// table does not list, so the code cannot emit what BENCHMARK.json
// does not declare.
type metricSet struct {
	defs []metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]value, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table")
}

// complete fills every metric not set with 0, so each run reports the
// whole table.
func (m *metricSet) complete() map[string]value {
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			m.vals[d.Name] = value{Unit: d.Unit}
		}
	}
	return m.vals
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (nearest rank) of ds, 0 when
// ds is empty. It sorts ds in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p/100*float64(len(ds))+0.5) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// budgetRow is one line of a workload's budget table.
type budgetRow struct {
	name string
	ms   float64
}

// printBudget prints the rows, which sum to the median op with the
// remainder as the explicit last row.
func printBudget(w io.Writer, workload, op string, n int, p50 float64, rows []budgetRow) {
	fmt.Fprintf(w, "budget %s: median %s %.3f ms (n=%d)\n", workload, op, p50, n)
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %9.3f ms %6.1f%%\n", r.name, r.ms, 100*ratio(r.ms, p50))
		sum += r.ms
	}
	fmt.Fprintf(w, "  %-28s %9.3f ms %6.1f%%\n", "= sum", sum, 100*ratio(sum, p50))
}
