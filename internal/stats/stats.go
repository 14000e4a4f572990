// Package stats provides the lightweight metrics primitives used across
// the system: monotone counters, fixed-bucket latency histograms and
// windowed rates. Services expose these through their Stats RPCs and
// /metrics, where the monitor and the benchmark's per-layer rows
// (benchmark/layers.go) read them.
//
// All primitives are safe for concurrent use and allocation-free on the
// hot path.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing 64-bit counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable 64-bit value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records durations into exponential buckets:
// bucket i covers [2^i, 2^(i+1)) microseconds, with the last bucket
// catching everything beyond. It answers approximate quantiles, which
// is all the experiment reports need.
type Histogram struct {
	buckets [32]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
	maxUS   atomic.Int64
	// exemplars[i] holds the trace ID of the most recent traced
	// observation that landed in bucket i (0 = none yet), giving each
	// latency bucket a concrete request to pivot into via MSpans.
	exemplars [32]atomic.Uint64
}

func bucketOf(us int64) int {
	if us < 1 {
		return 0
	}
	b := 63 - bits.LeadingZeros64(uint64(us))
	if b > 31 {
		b = 31
	}
	return b
}

// bucketBounds returns bucket i's value range [lo, hi) in microseconds.
// Bucket 0 also absorbs zero; the last bucket is open-ended (hi is only
// its nominal boundary).
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 2
	}
	return 1 << uint(i), 1 << uint(i+1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.buckets[bucketOf(us)].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
}

// ObserveExemplar records one duration and, when traceID is nonzero,
// remembers it as the bucket's exemplar: a real request whose span tree
// explains that latency band. The last writer wins, which is exactly
// the freshness an operator pivoting from a histogram wants.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID uint64) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	if traceID != 0 {
		h.exemplars[bucketOf(us)].Store(traceID)
	}
	h.Observe(d)
}

// Exemplar returns the trace ID most recently recorded for bucket i
// (0 when the bucket has never seen a traced observation).
func (h *Histogram) Exemplar(i int) uint64 {
	if i < 0 || i >= len(h.exemplars) {
		return 0
	}
	return h.exemplars[i].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumUS.Load()/n) * time.Microsecond
}

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.maxUS.Load()) * time.Microsecond
}

// Quantile estimates the q-quantile (0 < q <= 1) by locating the bucket
// containing the target rank and interpolating linearly within its
// value range, assuming observations spread uniformly inside a bucket.
// The estimate is clamped to the observed maximum, so Quantile(1) ==
// Max and the tail bucket (whose upper bound is open) stays honest.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// HistogramSnapshot is a point-in-time copy of a histogram's buckets —
// a plain value that travels over RPCs (see EncodeTo/DecodeSnapshot)
// and merges with snapshots from other nodes, which is how the monitor
// computes cluster-wide quantiles from per-node histograms.
type HistogramSnapshot struct {
	Buckets [32]int64
	Count   int64
	SumUS   int64
	MaxUS   int64
}

// Snapshot copies the histogram's current state. Buckets are loaded
// individually, so a snapshot taken during concurrent observation may
// be off by the in-flight observations — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumUS = h.sumUS.Load()
	s.MaxUS = h.maxUS.Load()
	return s
}

// Merge folds another snapshot into s (bucket-wise sum, max of maxes).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.SumUS += o.SumUS
	if o.MaxUS > s.MaxUS {
		s.MaxUS = o.MaxUS
	}
}

// Max returns the largest observation in the snapshot.
func (s HistogramSnapshot) Max() time.Duration {
	return time.Duration(s.MaxUS) * time.Microsecond
}

// Mean returns the snapshot's mean observation.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumUS/s.Count) * time.Microsecond
}

// Quantile estimates the q-quantile of the snapshot; see
// Histogram.Quantile for the interpolation rules.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	total := int64(0)
	for i := range s.Buckets {
		total += s.Buckets[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	max := s.Max()
	var cum int64
	for i := range s.Buckets {
		n := s.Buckets[i]
		cum += n
		if cum < rank {
			continue
		}
		lo, hi := bucketBounds(i)
		if hiUS := max.Microseconds(); hiUS < hi {
			hi = hiUS // the bucket holding the max cannot extend past it
		}
		// Position of the target rank within this bucket's n samples.
		frac := float64(rank-(cum-n)) / float64(n)
		est := time.Duration(float64(lo)+frac*float64(hi-lo)) * time.Microsecond
		if est > max {
			est = max
		}
		return est
	}
	return max
}

// String summarizes the histogram for logs and experiment output.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
}

// Rate measures throughput: bytes (or events) per elapsed wall time.
type Rate struct {
	start time.Time
	n     atomic.Int64
}

// NewRate starts a rate measurement now.
func NewRate() *Rate { return &Rate{start: time.Now()} }

// Add records n units.
func (r *Rate) Add(n int64) { r.n.Add(n) }

// Total returns the accumulated units.
func (r *Rate) Total() int64 { return r.n.Load() }

// PerSecond returns units per second since the rate was created.
func (r *Rate) PerSecond() float64 {
	el := time.Since(r.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(r.n.Load()) / el
}

// Registry is a named collection of metrics: counters, gauges,
// histograms and function-backed series. Names may carry Prometheus
// style labels ("rpc_calls_total{method=\"MPutPages\"}"); the part
// before the first '{' is the metric family. Handy for snapshotting a
// service's state over an RPC and for serving /metrics.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// Function-backed series let a registry export values owned
	// elsewhere (rpc.Metrics, provider.Stats) without double counting:
	// the function is evaluated at scrape time.
	counterFuncs map[string]func() int64
	gaugeFuncs   map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     make(map[string]*Counter),
		gauges:       make(map[string]*Gauge),
		histograms:   make(map[string]*Histogram),
		counterFuncs: make(map[string]func() int64),
		gaugeFuncs:   make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// CounterFunc registers a counter series whose value comes from f at
// read time. Re-registering a name replaces the previous function.
func (r *Registry) CounterFunc(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFuncs[name] = f
}

// GaugeFunc registers a gauge series whose value comes from f at read
// time. Re-registering a name replaces the previous function.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = f
}

// Snapshot returns a copy of all scalar values (counters, gauges and
// function-backed series; histograms are omitted).
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+len(r.counterFuncs)+len(r.gaugeFuncs))
	for k, v := range r.counters {
		out[k] = v.Value()
	}
	for k, v := range r.gauges {
		out[k] = v.Value()
	}
	for k, f := range r.counterFuncs {
		out[k] = f()
	}
	for k, f := range r.gaugeFuncs {
		out[k] = f()
	}
	return out
}

// String renders the snapshot sorted by name.
func (r *Registry) String() string {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, snap[k])
	}
	return b.String()
}
