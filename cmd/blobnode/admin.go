package main

import (
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux

	"blob/internal/monitor"
	"blob/internal/rpc"
	"blob/internal/stats"
)

// startAdmin serves the node's observability plane on addr (see
// docs/observability.md): Prometheus text exposition at /metrics, a
// readiness probe at /healthz (503 with a reason until the node can
// actually serve: page store open, group leader reachable), the runtime
// profiler under /debug/pprof/ (delegated to the default mux the pprof
// import populates), and — when this node hosts the monitor role — the
// cluster-wide /cluster/* endpoints.
func startAdmin(addr string, reg *stats.Registry, mon *monitor.Monitor, ready func() (bool, string)) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := reg.WritePrometheus(w); err != nil {
			log.Printf("admin: write metrics: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		ok, detail := ready()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ok {
			http.Error(w, detail, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(detail + "\n"))
	})
	if mon != nil {
		mon.RegisterHTTP(mux)
	}
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Printf("admin: %v", err)
		}
	}()
	log.Printf("admin plane on %s (/metrics, /healthz, /debug/pprof)", addr)
}

// registerRPCMetrics exports the process-wide RPC framework counters as
// function-backed series evaluated at scrape time.
func registerRPCMetrics(reg *stats.Registry) {
	reg.CounterFunc("rpc_calls_sent_total", rpc.M.CallsSent.Value)
	reg.CounterFunc("rpc_calls_handled_total", rpc.M.CallsHandled.Value)
	reg.CounterFunc("rpc_frames_sent_total", rpc.M.FramesSent.Value)
	reg.CounterFunc("rpc_messages_coalesced_total", rpc.M.MessagesCoaled.Value)
	reg.CounterFunc("rpc_bytes_sent_total", rpc.M.BytesSent.Value)
	reg.CounterFunc("rpc_bytes_received_total", rpc.M.BytesReceived.Value)
}
