package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecMatchesCode is the name-drift gate: BENCHMARK.json and the
// tables the code emits from must list the same workloads and metrics,
// in both directions, with names and units the driver accepts.
func TestSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not one the driver accepts", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, max 200", w.Name, len(w.Why))
		}
		if i < len(spec.Workloads) && (spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why) {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code {%s %s}", i, spec.Workloads[i], w.Name, w.Why)
		}
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is not one the driver accepts", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
		if i < len(spec.EndToEnd) {
			s := spec.EndToEnd[i]
			if s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better || s.Bound != d.Bound {
				t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, s, d)
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}

	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is not one the driver accepts", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if i < len(spec.PerLayer) {
			s := spec.PerLayer[i]
			if s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
				t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, s, d)
			}
		}
	}
}

// TestCoverage pins the definitions: a child's exposed time is the part
// of it no earlier sibling covers, a span's self time is its length less
// the union of its direct children, and the two sum to the span.
func TestCoverage(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "op", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40}, // overlaps b by 10
		{Op: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{Op: 1, ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{Op: 1, ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
	}
	self, exposed := coverage(spans)
	for id, want := range map[uint64]time.Duration{
		1: 100 - 50 - 10, // children cover [10,60) and [90,100)
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	for id, want := range map[uint64]time.Duration{2: 30, 3: 20, 4: 10, 5: 5} {
		if exposed[id] != want {
			t.Errorf("exposed time of span %d = %d, want %d", id, exposed[id], want)
		}
	}
	if sum := self[1] + exposed[2] + exposed[3] + exposed[4]; sum != 100 {
		t.Errorf("self + exposed children = %d, want the span's 100", sum)
	}

	mo := medianOpOf(spans, "op")
	near := func(gotMs, wantNs float64) bool { return math.Abs(gotMs*1e6-wantNs) < 1e-6 }
	if mo.n != 1 || !near(mo.total, 100) || !near(mo.self, 40) || !near(mo.exposed["b"], 20) || !near(mo.whole["b"], 30) {
		t.Errorf("median op = %+v", mo)
	}
}

// TestQuartilesMatchPython checks the spread rule against the values
// Python's statistics.quantiles(range(1, 11), n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, "same"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "better"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "better"},
		{lower, steady, []float64{70, 100, 130, 100, 101}, "unresolved"},
	} {
		if got, _, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestSmokeFinegrainRead runs the whole harness once on a 2 s window:
// build, three set-ups, load, verification, teardown, every end-to-end
// metric reported and positive.
func TestSmokeFinegrainRead(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real processes")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	l.Close()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain unavailable: %v", err)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{root: root, outDir: t.TempDir(), seconds: 2, stdout: io.Discard}
	if _, err := buildBlobnode(cfg.root, filepath.Join(cfg.outDir, "bin")); err != nil {
		t.Skipf("go build unavailable: %v", err)
	}
	var cl cleanups
	defer cl.run()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := runWorkload(ctx, cfg, &cl, workloadByName("finegrain-read"), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range endToEnd {
		if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
			t.Errorf("metric %s = %+v (reported %v), want a positive value in %s", d.Name, v, ok, d.Unit)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(cfg.outDir, "*", "data")); len(left) > 0 {
		t.Errorf("data dirs left behind: %v", left)
	}
}
