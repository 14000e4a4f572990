package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// setFile is what -out writes and -compare reads: every workload run
// -runs times in both modes, each metric as the list of its values.
type setFile struct {
	Header struct {
		Seed    uint64 `json:"seed"`
		Runs    int    `json:"runs"`
		Seconds int    `json:"seconds"`
		NProc   int    `json:"nproc"`
		Go      string `json:"go"`
	} `json:"header"`
	Workloads map[string]*setWorkload `json:"workloads"`
}

type setWorkload struct {
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	EndToEnd  map[string]*setValue `json:"end_to_end"`
	PerLayer  map[string]*setValue `json:"per_layer"`
}

type setValue struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// runSets runs every workload (or just only) runs times in both modes
// with seeds seed, seed+1, ... and writes the set to path.
func runSets(ctx context.Context, cfg config, cl *cleanups, only string, seed uint64, runs int, path string) error {
	var set setFile
	set.Header.Seed, set.Header.Runs, set.Header.Seconds = seed, runs, cfg.seconds
	set.Header.NProc, set.Header.Go = runtime.NumCPU(), runtime.Version()
	set.Workloads = make(map[string]*setWorkload)
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		sw := &setWorkload{EndToEnd: make(map[string]*setValue), PerLayer: make(map[string]*setValue)}
		set.Workloads[w.Name] = sw
		for i := 0; i < runs; i++ {
			for _, traced := range []bool{false, true} {
				rctx, cancel := context.WithTimeout(ctx, runTimeout)
				res, err := runWorkload(rctx, cfg, cl, w, seed+uint64(i), traced)
				cancel()
				if err != nil {
					return fmt.Errorf("%s run %d: %w", w.Name, i, err)
				}
				sw.Attempted += res.Attempted
				sw.Failed += res.Failed
				into := sw.EndToEnd
				if traced {
					into = sw.PerLayer
				}
				for name, v := range res.Metrics {
					if into[name] == nil {
						into[name] = &setValue{Unit: v.Unit}
					}
					into[name].Values = append(into[name].Values, v.Value)
				}
			}
		}
	}
	if len(set.Workloads) == 0 {
		return fmt.Errorf("unknown -workload %q", only)
	}
	b, err := json.MarshalIndent(&set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// quartiles returns the first quartile, median and third quartile of
// vs as Python's statistics.quantiles(vs, n=4) computes them (the
// driver's spread rule); one value is its own three quartiles.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict applies a metric's direction and bound to two sets of its
// values: "worse" or "better" when B's median moved past the bound,
// "unresolved" when it did not but either set's interquartile spread is
// wider than the bound, otherwise "same".
func verdict(d metricDef, a, b []float64) (word string, medA, medB, spread float64) {
	a1, medA, a3 := quartiles(a)
	b1, medB, b3 := quartiles(b)
	spread = max(ratio(a3-a1, medA), ratio(b3-b1, medB))
	worseBy := ratio(medB-medA, medA)
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case worseBy > d.Bound:
		word = "worse"
	case spread > d.Bound:
		word = "unresolved"
	case worseBy < -d.Bound:
		word = "better"
	default:
		word = "same"
	}
	return word, medA, medB, spread
}

func readSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints one row per (workload, metric) of two -out files
// and returns the exit code: 1 when any end-to-end metric is worse or
// B failed a larger share of its ops, 2 when the files cannot be
// compared. Per-layer metrics have no bound and are listed for reading.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, errA := readSet(pathA)
	b, errB := readSet(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareSets(out, a, b)
}

func compareSets(out io.Writer, a, b *setFile) int {
	code := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		fa, fb := 100*ratio(float64(wa.Failed), float64(wa.Attempted)), 100*ratio(float64(wb.Failed), float64(wb.Attempted))
		word := "same"
		if fb > fa {
			word, code = "worse", 1
		}
		fmt.Fprintf(out, "%-15s %-34s %12.4f %12.4f %7s %-10s (%d/%d vs %d/%d ops failed)\n",
			w.Name, "fail_pct", fa, fb, "", word, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if va == nil || vb == nil || len(va.Values) == 0 || len(vb.Values) == 0 {
				fmt.Fprintf(out, "%-15s %-34s missing from a set\n", w.Name, d.Name)
				code = max(code, 2)
				continue
			}
			word, ma, mb, spread := verdict(d, va.Values, vb.Values)
			if word == "worse" {
				code = max(code, 1)
			}
			fmt.Fprintf(out, "%-15s %-34s %12.4f %12.4f %+6.1f%% %-10s (%s, %s better, bound %.0f%%, spread %.1f%%, n=%d,%d)\n",
				w.Name, d.Name, ma, mb, 100*ratio(mb-ma, ma), word, d.Unit, d.Better, 100*d.Bound, 100*spread, len(va.Values), len(vb.Values))
		}
		for _, d := range perLayer {
			va, vb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
			if va == nil || vb == nil || len(va.Values) == 0 || len(vb.Values) == 0 {
				continue
			}
			_, ma, _ := quartiles(va.Values)
			_, mb, _ := quartiles(vb.Values)
			fmt.Fprintf(out, "%-15s %-34s %12.4f %12.4f %+6.1f%% %-10s (%s, %s better)\n",
				w.Name, d.Name, ma, mb, 100*ratio(mb-ma, ma), "layer", d.Unit, d.Better)
		}
	}
	return code
}
