package provider

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"blob/internal/stats"
)

// TestStatsTableCoversStruct is the drift gate of the provider's one
// field table: every Stats field appears in it exactly once, so the
// MStats wire and /metrics carry all of them.
func TestStatsTableCoversStruct(t *testing.T) {
	rt := reflect.TypeOf(Stats{})
	if len(statFields) != rt.NumField() {
		t.Fatalf("statFields has %d entries, Stats has %d fields", len(statFields), rt.NumField())
	}
	var st Stats
	seen := map[*int64]bool{}
	series := map[string]bool{}
	for i, f := range statFields {
		p := f.at(&st)
		if seen[p] || series[f.series] {
			t.Errorf("entry %d (%s) repeats a field or a series name", i, f.series)
		}
		seen[p], series[f.series] = true, true
		*p = int64(1000 + i)
	}
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Int() == 0 {
			t.Errorf("Stats field %s is in no table entry", rt.Field(i).Name)
		}
	}

	// Wire round trip and exposition of a live service.
	sv := NewService(NewStore(1 << 20))
	if err := sv.Store().PutPages([]Page{{Blob: 1, Write: 1, RelPage: 0, Data: []byte("abcd")}}); err != nil {
		t.Fatal(err)
	}
	sv.bloomSkips.Add(2)
	body, _ := sv.handleStats(context.Background(), nil)
	got, err := DecodeStats(body)
	if err != nil || got != sv.Snapshot() || got.BytesUsed != 4 || got.BloomSkips != 2 {
		t.Errorf("stats over the wire = %+v, %v; snapshot %+v", got, err, sv.Snapshot())
	}
	reg := stats.NewRegistry()
	sv.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, f := range statFields {
		if !strings.Contains(sb.String(), "\n"+f.series+" ") && !strings.HasPrefix(sb.String(), f.series+" ") {
			t.Errorf("series %s missing from exposition:\n%s", f.series, sb.String())
		}
	}
	if !strings.Contains(sb.String(), "provider_bytes_used 4\n") {
		t.Errorf("provider_bytes_used should report 4 live bytes:\n%s", sb.String())
	}
}
