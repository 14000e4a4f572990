package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"blob/internal/trace"
)

// RegisterHTTP mounts the monitor's admin endpoints on mux:
//
//	/cluster/metrics — federated Prometheus rollups (cluster_* series)
//	/cluster/healthz — JSON verdict; 200 for green/yellow, 503 for red
//	/cluster/events  — merged event tail as text
//	                   (?min=warn filters severity, ?n=100 caps lines,
//	                   ?format=json for structured output)
func (m *Monitor) RegisterHTTP(mux *http.ServeMux) {
	mux.HandleFunc("/cluster/metrics", m.serveMetrics)
	mux.HandleFunc("/cluster/healthz", m.serveHealthz)
	mux.HandleFunc("/cluster/events", m.serveEvents)
}

// healthValue maps the verdict to the cluster_health gauge: 0 green,
// 1 yellow, 2 red — "bigger is worse", so alerts are simple threshold
// rules.
func healthValue(h string) int {
	switch h {
	case HealthYellow:
		return 1
	case HealthRed:
		return 2
	}
	return 0
}

func (m *Monitor) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	s := m.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# TYPE cluster_health gauge\ncluster_health %d\n", healthValue(s.Health))
	p("# TYPE cluster_membership_epoch gauge\ncluster_membership_epoch %d\n", s.Epoch)
	p("# TYPE cluster_capacity_bytes gauge\ncluster_capacity_bytes %d\n", s.CapacityBytes)
	p("# TYPE cluster_used_bytes gauge\ncluster_used_bytes %d\n", s.UsedBytes)
	p("# TYPE cluster_pages gauge\ncluster_pages %d\n", s.TotalPages)
	p("# TYPE cluster_providers gauge\n")
	p("cluster_providers{state=\"alive\"} %d\n", len(s.Providers)-s.DeadProviders)
	p("cluster_providers{state=\"dead\"} %d\n", s.DeadProviders)
	p("# TYPE cluster_redundancy_debt gauge\ncluster_redundancy_debt %d\n", s.RedundancyDebt)
	p("# TYPE cluster_redundancy_debt_peak gauge\ncluster_redundancy_debt_peak %d\n", s.DebtPeak)
	repairPending := 0
	if s.RepairPending {
		repairPending = 1
	}
	p("# TYPE cluster_repair_pending gauge\ncluster_repair_pending %d\n", repairPending)
	p("# TYPE cluster_breakers_open gauge\ncluster_breakers_open %d\n", s.BreakersOpen)
	if s.ReadP99 > 0 {
		p("# TYPE cluster_read_seconds gauge\n")
		p("cluster_read_seconds{quantile=\"0.5\"} %g\n", float64(s.ReadP50)/1e9)
		p("cluster_read_seconds{quantile=\"0.99\"} %g\n", float64(s.ReadP99)/1e9)
		p("cluster_read_seconds{quantile=\"1\"} %g\n", float64(s.ReadMax)/1e9)
	}
	if s.WriteP99 > 0 {
		p("# TYPE cluster_write_seconds gauge\n")
		p("cluster_write_seconds{quantile=\"0.5\"} %g\n", float64(s.WriteP50)/1e9)
		p("cluster_write_seconds{quantile=\"0.99\"} %g\n", float64(s.WriteP99)/1e9)
		p("cluster_write_seconds{quantile=\"1\"} %g\n", float64(s.WriteMax)/1e9)
	}
	p("# TYPE cluster_provider_bytes_used gauge\n")
	for _, pr := range s.Providers {
		p("cluster_provider_bytes_used{id=\"%d\"} %d\n", pr.ID, pr.BytesUsed)
	}
	p("# TYPE cluster_provider_ops_per_sec gauge\n")
	for _, pr := range s.Providers {
		p("cluster_provider_ops_per_sec{id=\"%d\",op=\"get\"} %g\n", pr.ID, pr.GetsPerSec)
		p("cluster_provider_ops_per_sec{id=\"%d\",op=\"put\"} %g\n", pr.ID, pr.PutsPerSec)
	}
	if s.VM != nil {
		p("# TYPE cluster_vm_term gauge\ncluster_vm_term %d\n", s.VM.Term)
		p("# TYPE cluster_vm_leader gauge\ncluster_vm_leader %d\n", s.VM.Leader)
	}
}

func (m *Monitor) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	s := m.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if s.Health == HealthRed || s.Health == "" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	status := s.Health
	if status == "" {
		status = "unknown" // no poll has completed yet
	}
	json.NewEncoder(w).Encode(struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons,omitempty"`
	}{status, s.Reasons})
}

func (m *Monitor) serveEvents(w http.ResponseWriter, r *http.Request) {
	minSev := trace.SevInfo
	if v := r.URL.Query().Get("min"); v != "" {
		sev, err := trace.ParseSeverity(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		minSev = sev
	}
	evs := m.EventsSince(0, minSev)
	if v := r.URL.Query().Get("n"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < len(evs) {
			evs = evs[len(evs)-n:]
		}
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(evs)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, e := range evs {
		fmt.Fprintln(w, e.Format())
	}
}
