package provider

import (
	"context"

	"blob/internal/stats"
	"blob/internal/wire"
)

// statFields lists every Stats field once, in MStats wire order, with its
// /metrics series. The MStats codec and RegisterMetrics both walk it, so
// the two surfaces cannot drift apart (a test checks the table against
// the struct).
var statFields = []struct {
	series string
	gauge  bool // current level, not a monotone total
	at     func(*Stats) *int64
}{
	{"provider_bytes_used", true, func(s *Stats) *int64 { return &s.BytesUsed }},
	{"provider_pages", true, func(s *Stats) *int64 { return &s.PageCount }},
	{"provider_capacity_bytes", true, func(s *Stats) *int64 { return &s.Capacity }},
	{"provider_puts_total", false, func(s *Stats) *int64 { return &s.Puts }},
	{"provider_gets_total", false, func(s *Stats) *int64 { return &s.Gets }},
	{"provider_misses_total", false, func(s *Stats) *int64 { return &s.Misses }},
	{"provider_active_ops", true, func(s *Stats) *int64 { return &s.ActiveOps }},
	{"provider_disk_bytes", true, func(s *Stats) *int64 { return &s.DiskBytes }},
	{"provider_disk_live_bytes", true, func(s *Stats) *int64 { return &s.DiskLive }},
	{"provider_disk_segments", true, func(s *Stats) *int64 { return &s.Segments }},
	{"provider_restart_replayed_bytes_total", false, func(s *Stats) *int64 { return &s.ReplayedBytes }},
	{"provider_restart_sidecar_bytes_total", false, func(s *Stats) *int64 { return &s.SidecarBytes }},
	{"provider_restart_segments_replayed_total", false, func(s *Stats) *int64 { return &s.SegmentsReplayed }},
	{"provider_restart_sidecars_loaded_total", false, func(s *Stats) *int64 { return &s.SidecarsLoaded }},
}

// MStats response: one varint per statFields entry, in table order.
func (sv *Service) handleStats(_ context.Context, _ []byte) ([]byte, error) {
	st := sv.Snapshot()
	w := wire.NewWriter(4 * len(statFields))
	for _, f := range statFields {
		w.Varint(*f.at(&st))
	}
	return w.Bytes(), nil
}

// DecodeStats parses an MStats response.
func DecodeStats(body []byte) (Stats, error) {
	r := wire.NewReader(body)
	var st Stats
	for _, f := range statFields {
		*f.at(&st) = r.Varint()
	}
	return st, r.Err()
}

// RegisterMetrics exports the service's statistics into reg as
// function-backed series evaluated at scrape time, one per Stats field.
func (sv *Service) RegisterMetrics(reg *stats.Registry) {
	for _, f := range statFields {
		at := f.at
		read := func() int64 { st := sv.Snapshot(); return *at(&st) }
		if f.gauge {
			reg.GaugeFunc(f.series, read)
		} else {
			reg.CounterFunc(f.series, read)
		}
	}
}
