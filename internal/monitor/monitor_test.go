package monitor

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blob/internal/netsim"
	"blob/internal/pmanager"
	"blob/internal/provider"
	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/trace"
)

func TestCounterRateResetSafe(t *testing.T) {
	dt := time.Second
	if r := counterRate(100, 150, dt); r != 50 {
		t.Errorf("steady rate = %v, want 50", r)
	}
	// Restart: counter fell below the previous reading. The delta is
	// the new absolute value, never negative.
	if r := counterRate(1000, 30, dt); r != 30 {
		t.Errorf("post-restart rate = %v, want 30", r)
	}
	if r := counterRate(5, 5, 0); r != 0 {
		t.Errorf("zero-interval rate = %v, want 0", r)
	}
}

func TestRateTrackerNeverNegative(t *testing.T) {
	var tr rateTracker
	t0 := time.Now()
	g, p := tr.rates(1, provider.Stats{Gets: 100, Puts: 50}, t0)
	if g != 0 || p != 0 {
		t.Errorf("first poll rates = %v/%v, want 0/0", g, p)
	}
	tr.advance(t0)
	// Second poll: provider restarted, counters collapsed.
	g, p = tr.rates(1, provider.Stats{Gets: 10, Puts: 2}, t0.Add(time.Second))
	if g < 0 || p < 0 {
		t.Fatalf("negative rates after counter reset: %v/%v", g, p)
	}
	if g != 10 || p != 2 {
		t.Errorf("post-restart rates = %v/%v, want 10/2", g, p)
	}
}

// TestMonitorRetailsRestartedNode pins restart detection: a node
// replaced by a new process whose recorder has already emitted more
// events than the monitor's cursor still has every one of its events
// collected — they are the election, install and recovery events a
// restart emits.
func TestMonitorRetailsRestartedNode(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	serve := func(rec *trace.Tracer) *rpc.Server {
		srv := rpc.NewServer()
		srv.SetTracer(rec)
		l, err := n.Host("node").Listen("rpc")
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(l)
		return srv
	}
	old := trace.New("node:rpc", 0)
	for i := 0; i < 3; i++ {
		old.Emit(trace.SevInfo, trace.CompactionDone, int64(i), "old %d", i)
	}
	srv := serve(old)
	pool := rpc.NewPool(n.Host("monitor"))
	defer pool.Close()
	m := New(Config{Pool: pool, PMAddr: "node:rpc"})
	ctx := context.Background()
	m.Poll(ctx)
	if got := len(m.EventsSince(0, trace.SevInfo)); got != 3 {
		t.Fatalf("first poll collected %d events, want 3", got)
	}

	srv.Close()
	reborn := trace.New("node:rpc", 0)
	for i := 0; i < 5; i++ {
		reborn.Emit(trace.SevWarn, trace.ElectionWon, int64(i), "reborn %d", i)
	}
	srv = serve(reborn)
	defer srv.Close()
	for i := 0; i < 3; i++ {
		m.Poll(ctx)
	}
	if got := m.EventsSince(0, trace.SevWarn); len(got) != 5 {
		t.Fatalf("monitor collected %d of the restarted node's 5 events: %v", len(got), got)
	}
}

func TestEventAggDebtLifecycle(t *testing.T) {
	var a eventAgg
	ts := func(s int64) int64 { return s * int64(time.Second) }
	// A death, then a sweep that finds 6 degraded slots and fixes 4.
	a.ingest([]trace.Event{
		{Time: ts(1), Type: trace.HeartbeatDeath, Val: 2},
		{Time: ts(2), Type: trace.RepairStart, Val: 10},
		{Time: ts(3), Type: trace.RedundancyDegraded, Val: 6},
		{Time: ts(4), Type: trace.RepairFinish, Val: 2},
	})
	if a.debt != 2 || a.debtPeak != 6 {
		t.Fatalf("debt = %d peak = %d, want 2/6", a.debt, a.debtPeak)
	}
	if a.lastDeathT > a.lastFinishT {
		t.Error("sweep finished after the death; repair should not read as pending")
	}
	// A later clean sweep zeroes the books.
	a.ingest([]trace.Event{{Time: ts(9), Type: trace.RepairFinish, Val: 0}})
	if a.debt != 0 || a.debtPeak != 0 {
		t.Errorf("after clean sweep debt = %d peak = %d, want 0/0", a.debt, a.debtPeak)
	}
}

func TestEventAggBreakers(t *testing.T) {
	var a eventAgg
	ts := func(s int64) int64 { return s * int64(time.Second) }
	open := func(at int64, node, peer string) trace.Event {
		return trace.Event{Time: ts(at), Type: trace.BreakerOpen, Node: node,
			Msg: "peer " + peer + ": circuit breaker open (trip 1, err-rate 0.62, srtt 310ms)"}
	}
	closed := func(at int64, node, peer string) trace.Event {
		return trace.Event{Time: ts(at), Type: trace.BreakerClose, Node: node,
			Msg: "peer " + peer + ": circuit breaker closed"}
	}

	// Two clients trip against the same sick peer; one recovers.
	a.ingest([]trace.Event{
		open(1, "client0", "node2:data"),
		open(2, "client1", "node2:data"),
		closed(3, "client0", "node2:data"),
	})
	got := a.openBreakers()
	if len(got) != 1 || got[0] != "client1 -> node2:data" {
		t.Fatalf("open breakers = %v, want [client1 -> node2:data]", got)
	}

	// Re-open after a close: newest event wins per (node, peer) slot.
	a.ingest([]trace.Event{open(4, "client0", "node2:data")})
	if got := a.openBreakers(); len(got) != 2 {
		t.Fatalf("after re-open, open breakers = %v, want 2 entries", got)
	}

	// Portless peer addresses must still parse.
	a.ingest([]trace.Event{open(5, "client2", "node9")})
	found := false
	for _, b := range a.openBreakers() {
		if b == "client2 -> node9" {
			found = true
		}
	}
	if !found {
		t.Errorf("portless peer missing from %v", a.openBreakers())
	}

	// Rollup surfaces open breakers as a yellow reason.
	in := rollupInput{
		now: time.Now(),
		membership: pmanager.Membership{Members: []pmanager.Member{
			{ID: 1, Addr: "a", Alive: true}}},
		agg: &a,
	}
	s := rollup(in)
	if s.Health != HealthYellow || s.BreakersOpen != 3 {
		t.Errorf("open breakers -> %s open=%d, want yellow/3", s.Health, s.BreakersOpen)
	}
	reasonFound := false
	for _, r := range s.Reasons {
		if strings.Contains(r, "circuit breakers open: 3") {
			reasonFound = true
		}
	}
	if !reasonFound {
		t.Errorf("no breaker reason in %v", s.Reasons)
	}

	// All healed: green again, gauge zeroed.
	a.ingest([]trace.Event{
		closed(6, "client0", "node2:data"),
		closed(6, "client1", "node2:data"),
		closed(6, "client2", "node9"),
	})
	if s := rollup(in); s.Health != HealthGreen || s.BreakersOpen != 0 {
		t.Errorf("after heal -> %s open=%d, want green/0", s.Health, s.BreakersOpen)
	}
}

func TestRollupHealthRules(t *testing.T) {
	now := time.Now()
	alive := pmanager.Membership{Epoch: 3, Members: []pmanager.Member{
		{ID: 1, Addr: "a", Alive: true},
		{ID: 2, Addr: "b", Alive: true},
	}}

	base := func() rollupInput {
		return rollupInput{now: now, membership: alive, agg: &eventAgg{}}
	}

	if s := rollup(base()); s.Health != HealthGreen {
		t.Errorf("healthy cluster = %s (%v), want green", s.Health, s.Reasons)
	}

	in := base()
	in.membership.Members[1].Alive = false
	if s := rollup(in); s.Health != HealthYellow || s.DeadProviders != 1 {
		t.Errorf("dead provider -> %s dead=%d, want yellow/1", s.Health, s.DeadProviders)
	}
	in.membership.Members[1].Alive = true

	in = base()
	in.agg = &eventAgg{debt: 4, lastFinishT: 10}
	s := rollup(in)
	if s.Health != HealthYellow || s.RedundancyDebt != 4 {
		t.Errorf("debt -> %s debt=%d, want yellow/4", s.Health, s.RedundancyDebt)
	}

	in = base()
	in.agg = &eventAgg{lastFinishT: 10, lastDeathT: 20}
	if s := rollup(in); s.Health != HealthYellow || !s.RepairPending {
		t.Errorf("death newer than sweep -> %s pending=%v, want yellow/true", s.Health, s.RepairPending)
	}

	in = base()
	in.pmErr = context.DeadlineExceeded
	if s := rollup(in); s.Health != HealthRed {
		t.Errorf("pmanager unreachable -> %s, want red", s.Health)
	}

	in = base()
	in.vm = &VMRoll{Leader: 0, Term: 1, Reachable: 3, Replicas: 3}
	if s := rollup(in); s.Health != HealthGreen {
		t.Errorf("led vmanager group -> %s %v, want green", s.Health, s.Reasons)
	}
	in.vm = &VMRoll{Leader: -1, Reachable: 1, Replicas: 3}
	if s := rollup(in); s.Health != HealthRed {
		t.Errorf("leaderless vmanager group -> %s, want red", s.Health)
	}

	in = base()
	in.agg = &eventAgg{lastUnrepT: 50, lastCleanT: 10}
	if s := rollup(in); s.Health != HealthRed {
		t.Errorf("unrepairable pages -> %s, want red", s.Health)
	}
	// ... until a clean sweep supersedes the unrepairable finding.
	in.agg = &eventAgg{lastUnrepT: 50, lastCleanT: 60}
	if s := rollup(in); s.Health != HealthGreen {
		t.Errorf("clean sweep after unrepairable -> %s, want green", s.Health)
	}
}

func TestRollupLatencyMerge(t *testing.T) {
	var fast, slow stats.Histogram
	for i := 0; i < 99; i++ {
		fast.Observe(100 * time.Microsecond)
	}
	slow.Observe(50 * time.Millisecond)
	in := rollupInput{
		now:        time.Now(),
		membership: pmanager.Membership{Members: []pmanager.Member{{ID: 1, Alive: true}, {ID: 2, Alive: true}}},
		latency: map[uint32][2]stats.HistogramSnapshot{
			1: {fast.Snapshot(), {}},
			2: {slow.Snapshot(), {}},
		},
		agg: &eventAgg{},
	}
	s := rollup(in)
	if s.ReadP50 > int64(time.Millisecond) {
		t.Errorf("merged p50 = %v, want sub-ms", time.Duration(s.ReadP50))
	}
	// The one 50ms outlier across 100 merged observations must surface
	// at p100 — and p99 must round up to the slow bucket, proving the
	// merge keeps buckets rather than averaging per-node percentiles.
	if s.ReadMax < int64(40*time.Millisecond) {
		t.Errorf("merged max = %v, want ~50ms", time.Duration(s.ReadMax))
	}
	if s.WriteP99 != 0 {
		t.Errorf("no write observations but WriteP99 = %d", s.WriteP99)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	m := New(Config{PMAddr: "pm:rpc"})
	now := time.Now().UnixNano()
	m.mu.Lock()
	m.snap = ClusterSnapshot{
		Time: now, Health: HealthYellow,
		Reasons:        []string{"redundancy debt: 3 degraded page slots after last sweep"},
		Epoch:          7,
		RedundancyDebt: 3,
		Providers: []ProviderRoll{
			{ID: 1, Addr: "a", Alive: true, BytesUsed: 100, GetsPerSec: 2.5},
			{ID: 2, Addr: "b", Alive: false},
		},
		DeadProviders: 1,
		VM:            &VMRoll{Leader: 1, Term: 4, Reachable: 3, Replicas: 3},
		ReadP50:       int64(time.Millisecond), ReadP99: int64(5 * time.Millisecond), ReadMax: int64(6 * time.Millisecond),
	}
	m.tail = []trace.Event{
		{Seq: 1, Time: now - 100, Sev: trace.SevInfo, Type: trace.RepairStart, Node: "repair", Msg: "sweep over 5 blobs"},
		{Seq: 2, Time: now - 50, Sev: trace.SevWarn, Type: trace.HeartbeatDeath, Node: "pm", Msg: "provider 2 silent", Val: 2},
	}
	m.mu.Unlock()

	mux := http.NewServeMux()
	m.RegisterHTTP(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	code, body := get("/cluster/metrics")
	if code != 200 {
		t.Fatalf("/cluster/metrics = %d", code)
	}
	for _, want := range []string{
		"cluster_health 1",
		"cluster_membership_epoch 7",
		"cluster_redundancy_debt 3",
		`cluster_providers{state="dead"} 1`,
		`cluster_provider_ops_per_sec{id="1",op="get"} 2.5`,
		"cluster_vm_term 4",
		"cluster_vm_leader 1",
		`cluster_read_seconds{quantile="0.99"} 0.005`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get("/cluster/healthz")
	if code != 200 || !strings.Contains(body, `"status":"yellow"`) {
		t.Errorf("/cluster/healthz = %d %q, want 200 yellow", code, body)
	}

	// Red must fail the probe.
	m.mu.Lock()
	m.snap.Health = HealthRed
	m.mu.Unlock()
	if code, _ = get("/cluster/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("red /cluster/healthz = %d, want 503", code)
	}
	m.mu.Lock()
	m.snap.Health = HealthYellow
	m.mu.Unlock()

	code, body = get("/cluster/events")
	if code != 200 || !strings.Contains(body, "heartbeat-death") || !strings.Contains(body, "repair-start") {
		t.Errorf("/cluster/events = %d:\n%s", code, body)
	}
	_, body = get("/cluster/events?min=warn")
	if strings.Contains(body, "repair-start") || !strings.Contains(body, "heartbeat-death") {
		t.Errorf("severity filter failed:\n%s", body)
	}
	_, body = get("/cluster/events?format=json")
	if !strings.Contains(body, `"heartbeat-death"`) && !strings.Contains(body, `"Type":6`) && !strings.Contains(body, `"type":6`) {
		// JSON encodes Type numerically; just check it parses as a list.
		if !strings.HasPrefix(strings.TrimSpace(body), "[") {
			t.Errorf("json events malformed:\n%s", body)
		}
	}
	if code, _ := get("/cluster/events?min=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus severity = %d, want 400", code)
	}
}
