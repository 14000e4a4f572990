package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("Counter = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("Gauge = %d, want 7", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	mean := h.Mean()
	if mean < 40*time.Millisecond || mean > 60*time.Millisecond {
		t.Errorf("Mean = %v, want ~50ms", mean)
	}
	if h.Max() < 100*time.Millisecond {
		t.Errorf("Max = %v, want >= 100ms", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 32*time.Millisecond || p50 > 128*time.Millisecond {
		t.Errorf("p50 = %v, want within a power-of-two of 50ms", p50)
	}
	if h.Quantile(1.0) < h.Quantile(0.5) {
		t.Error("quantiles must be monotone")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramNegativeDuration(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clock skew should not panic or corrupt
	if h.Count() != 1 {
		t.Errorf("Count = %d, want 1", h.Count())
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	s := h.String()
	if !strings.Contains(s, "n=1") {
		t.Errorf("String = %q, want n=1", s)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads").Add(3)
	r.Counter("writes").Inc()
	r.Counter("reads").Inc()
	snap := r.Snapshot()
	if snap["reads"] != 4 || snap["writes"] != 1 {
		t.Errorf("Snapshot = %v", snap)
	}
	s := r.String()
	if !strings.Contains(s, "reads=4") || !strings.Contains(s, "writes=1") {
		t.Errorf("String = %q", s)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot()["shared"]; got != 800 {
		t.Errorf("shared = %d, want 800", got)
	}
}

func TestBucketOfBoundaries(t *testing.T) {
	cases := []struct {
		us   int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1 << 31, 31}, {1 << 40, 31}}
	for _, c := range cases {
		if got := bucketOf(c.us); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.us, got, c.want)
		}
	}
}
