package monitor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blob/internal/pmanager"
	"blob/internal/provider"
	"blob/internal/stats"
	"blob/internal/trace"
)

// Health verdicts, ordered by severity.
const (
	HealthGreen  = "green"  // fully redundant, all planes answering
	HealthYellow = "yellow" // degraded but self-healing (dead provider, debt)
	HealthRed    = "red"    // operator needed (plane down, unrepairable data)
)

// ClusterSnapshot is the monitor's rolled-up view of the whole
// deployment — what MCluster serves and blobctl top renders. All
// fields are plain values; the struct marshals to JSON.
type ClusterSnapshot struct {
	Time    int64    `json:"time"` // unix nanoseconds of the poll
	Health  string   `json:"health"`
	Reasons []string `json:"reasons,omitempty"`

	Epoch      uint64 `json:"epoch"`      // provider membership epoch
	Redundancy string `json:"redundancy"` // advertised mode, e.g. "rs(1,1)" or "rs(4,2)"

	Providers []ProviderRoll `json:"providers"`
	VM        *VMRoll        `json:"vm,omitempty"`

	CapacityBytes int64 `json:"capacity_bytes"` // 0 = unbounded
	UsedBytes     int64 `json:"used_bytes"`
	TotalPages    int64 `json:"total_pages"`
	DeadProviders int   `json:"dead_providers"`

	// RedundancyDebt is the degraded page slots outstanding after the
	// newest repair sweep (0 = full redundancy); DebtPeak is the
	// largest degradation any sweep found since the last clean one.
	// RepairPending reports a heartbeat death newer than that sweep —
	// the debt number is stale until the next sweep lands.
	RedundancyDebt int64 `json:"redundancy_debt"`
	DebtPeak       int64 `json:"debt_peak"`
	RepairPending  bool  `json:"repair_pending"`
	LastSweep      int64 `json:"last_sweep,omitempty"` // unix ns of newest RepairFinish

	// Cluster-wide latency quantiles from merged provider histograms,
	// in nanoseconds.
	ReadP50  int64 `json:"read_p50,omitempty"`
	ReadP99  int64 `json:"read_p99,omitempty"`
	ReadMax  int64 `json:"read_max,omitempty"`
	WriteP50 int64 `json:"write_p50,omitempty"`
	WriteP99 int64 `json:"write_p99,omitempty"`
	WriteMax int64 `json:"write_max,omitempty"`

	// Gray-failure plane (docs/robustness.md): circuit breakers
	// currently open anywhere in the cluster, derived from the
	// BreakerOpen/BreakerClose event stream. Each entry reads
	// "observer -> peer" — the node whose pool tripped, and the peer it
	// tripped on.
	BreakersOpen int      `json:"breakers_open"`
	OpenBreakers []string `json:"open_breakers,omitempty"`

	// Recent merged events, oldest first (bounded tail).
	Events []trace.Event `json:"events,omitempty"`
}

// ProviderRoll is one data provider's row in the snapshot.
type ProviderRoll struct {
	ID         uint32  `json:"id"`
	Addr       string  `json:"addr"`
	Alive      bool    `json:"alive"`
	LastSeenMS int64   `json:"last_seen_ms"`
	Capacity   int64   `json:"capacity"`
	BytesUsed  int64   `json:"bytes_used"`
	PageCount  int64   `json:"pages"`
	ActiveOps  int64   `json:"active_ops"`
	GetsPerSec float64 `json:"gets_per_sec"`
	PutsPerSec float64 `json:"puts_per_sec"`
}

// VMRoll is the version plane's row: which replica of the vmanager
// group leads, at what term, and how many replicas answered the status
// poll.
type VMRoll struct {
	Leader    int    `json:"leader"` // -1: no reachable replica claims leadership
	Term      uint64 `json:"term"`
	Reachable int    `json:"reachable"`
	Replicas  int    `json:"replicas"`
	LogLen    uint64 `json:"log_len"`
	Blobs     uint64 `json:"blobs"`
}

// eventAgg folds the event stream into the running aggregates the
// health rules read. It sees every event exactly once (the poller
// feeds it the per-node incremental tails), so the aggregates survive
// ring overwrites in the source journals.
type eventAgg struct {
	lastFinishT int64 // newest RepairFinish
	debt        int64 // its Val
	lastCleanT  int64 // newest RepairFinish with Val == 0
	degradedT   int64 // newest RedundancyDegraded
	debtPeak    int64 // max RedundancyDegraded.Val since lastCleanT
	lastDeathT  int64 // newest HeartbeatDeath
	lastUnrepT  int64 // newest Unrepairable
	elections   []int64
	// breakers tracks each observer->peer circuit by its newest open
	// and close event times; a circuit is open while openT > closeT.
	breakers map[string][2]int64
}

// ingest folds newly collected events in. Events may arrive slightly
// out of time order across nodes; aggregates use per-type newest-wins.
func (a *eventAgg) ingest(evs []trace.Event) {
	for _, e := range evs {
		switch e.Type {
		case trace.RepairFinish:
			if e.Time >= a.lastFinishT {
				a.lastFinishT, a.debt = e.Time, e.Val
			}
			if e.Val == 0 && e.Time >= a.lastCleanT {
				a.lastCleanT = e.Time
				a.debtPeak = 0
			}
		case trace.RedundancyDegraded:
			if e.Time >= a.degradedT {
				a.degradedT = e.Time
			}
			if e.Time >= a.lastCleanT && e.Val > a.debtPeak {
				a.debtPeak = e.Val
			}
		case trace.HeartbeatDeath:
			if e.Time >= a.lastDeathT {
				a.lastDeathT = e.Time
			}
		case trace.Unrepairable:
			if e.Time >= a.lastUnrepT {
				a.lastUnrepT = e.Time
			}
		case trace.ElectionWon:
			a.elections = append(a.elections, e.Time)
			if len(a.elections) > 256 {
				a.elections = a.elections[len(a.elections)-256:]
			}
		case trace.BreakerOpen, trace.BreakerClose:
			if a.breakers == nil {
				a.breakers = make(map[string][2]int64)
			}
			key := e.Node + " -> " + breakerPeer(e.Msg)
			t := a.breakers[key]
			if e.Type == trace.BreakerOpen && e.Time >= t[0] {
				t[0] = e.Time
			}
			if e.Type == trace.BreakerClose && e.Time >= t[1] {
				t[1] = e.Time
			}
			a.breakers[key] = t
		}
	}
}

// breakerPeer extracts the peer address from a breaker event message
// ("peer <addr>: circuit breaker ..."); unknown shapes pass through
// whole, so a changed emit format degrades the label, never the count.
func breakerPeer(msg string) string {
	const prefix = "peer "
	rest, ok := strings.CutPrefix(msg, prefix)
	if !ok {
		return msg
	}
	// "host:port: circuit ..." — the address ends at the colon after
	// the port, i.e. the second colon (or the first, if no port).
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		if j := strings.IndexByte(rest[i+1:], ':'); j >= 0 {
			return rest[:i+1+j]
		}
		return rest[:i]
	}
	return rest
}

// openBreakers lists the observer->peer circuits currently open,
// sorted for stable snapshots.
func (a *eventAgg) openBreakers() []string {
	var open []string
	for key, t := range a.breakers {
		if t[0] > t[1] {
			open = append(open, key)
		}
	}
	sort.Strings(open)
	return open
}

// electionsSince counts leader elections recorded after t.
func (a *eventAgg) electionsSince(t int64) int {
	n := 0
	for _, et := range a.elections {
		if et > t {
			n++
		}
	}
	return n
}

// counterRate turns two successive counter readings into a per-second
// rate that can never go negative: a reading below the previous one
// means the process restarted and its counter began again at zero, so
// the delta is the new reading itself (everything counted since the
// restart), exactly like Prometheus rate().
func counterRate(prev, cur int64, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	delta := cur - prev
	if delta < 0 {
		delta = cur
	}
	if delta < 0 {
		delta = 0
	}
	return float64(delta) / dt.Seconds()
}

// rateTracker derives per-provider gets/puts rates across polls,
// restart-safe via counterRate.
type rateTracker struct {
	prev  map[uint32]provider.Stats
	prevT time.Time
}

// rates folds the latest stats for provider id and returns its
// gets/puts per second since the previous poll (0 on the first one).
func (t *rateTracker) rates(id uint32, cur provider.Stats, now time.Time) (gets, puts float64) {
	if t.prev == nil {
		t.prev = make(map[uint32]provider.Stats)
	}
	if p, ok := t.prev[id]; ok {
		dt := now.Sub(t.prevT)
		gets = counterRate(p.Gets, cur.Gets, dt)
		puts = counterRate(p.Puts, cur.Puts, dt)
	}
	t.prev[id] = cur
	return gets, puts
}

// advance stamps the poll time after every provider's rates were taken.
func (t *rateTracker) advance(now time.Time) { t.prevT = now }

// rollupInput is everything one poll collected — a plain value so the
// health rules and snapshot assembly are pure and unit-testable.
type rollupInput struct {
	now        time.Time
	pmErr      error // provider manager unreachable
	membership pmanager.Membership
	provStats  map[uint32]provider.Stats             // per alive provider
	provRates  map[uint32][2]float64                 // gets, puts per sec
	latency    map[uint32][2]stats.HistogramSnapshot // get, put
	vm         *VMRoll                               // pre-assembled from status polls; nil when unwatched
	agg        *eventAgg
	tail       []trace.Event
}

// electionChurnWindow is how far back "recent elections" reaches when
// judging version-plane stability.
const electionChurnWindow = time.Minute

// rollup assembles the cluster snapshot, health verdict included.
func rollup(in rollupInput) ClusterSnapshot {
	s := ClusterSnapshot{
		Time:   in.now.UnixNano(),
		Events: in.tail,
		VM:     in.vm,
	}
	var reasons []string

	if in.pmErr != nil {
		s.Health = HealthRed
		s.Reasons = []string{fmt.Sprintf("provider manager unreachable: %v", in.pmErr)}
		return s
	}
	s.Epoch = in.membership.Epoch
	s.Redundancy = in.membership.Redundancy.String()

	unbounded := false
	for _, m := range in.membership.Members {
		roll := ProviderRoll{
			ID:         m.ID,
			Addr:       m.Addr,
			Alive:      m.Alive,
			LastSeenMS: m.LastSeen.Milliseconds(),
			Capacity:   m.Capacity,
			BytesUsed:  m.BytesUsed,
			ActiveOps:  m.ActiveOps,
		}
		if st, ok := in.provStats[m.ID]; ok {
			roll.BytesUsed = st.BytesUsed
			roll.PageCount = st.PageCount
			roll.ActiveOps = st.ActiveOps
			s.TotalPages += st.PageCount
		}
		if r, ok := in.provRates[m.ID]; ok {
			roll.GetsPerSec, roll.PutsPerSec = r[0], r[1]
		}
		s.Providers = append(s.Providers, roll)
		s.UsedBytes += roll.BytesUsed
		if m.Capacity <= 0 {
			unbounded = true
		} else {
			s.CapacityBytes += m.Capacity
		}
		if !m.Alive {
			s.DeadProviders++
			reasons = append(reasons, fmt.Sprintf("provider %d (%s) dead: no heartbeat for %v",
				m.ID, m.Addr, m.LastSeen.Round(time.Millisecond)))
		}
	}
	if unbounded {
		s.CapacityBytes = 0 // any unbounded provider makes the sum meaningless
	}
	sort.Slice(s.Providers, func(i, j int) bool { return s.Providers[i].ID < s.Providers[j].ID })

	// Version plane: the group needs a reachable leader.
	noLeader := in.vm != nil && in.vm.Leader < 0
	if noLeader {
		reasons = append(reasons, fmt.Sprintf("vmanager group has no reachable leader (%d/%d replicas answered)",
			in.vm.Reachable, in.vm.Replicas))
	}

	// Redundancy accounting from the event stream.
	a := in.agg
	if a != nil {
		s.RedundancyDebt = a.debt
		s.DebtPeak = a.debtPeak
		s.LastSweep = a.lastFinishT
		s.RepairPending = a.lastDeathT > a.lastFinishT
		if s.RedundancyDebt > 0 {
			reasons = append(reasons, fmt.Sprintf("redundancy debt: %d degraded page slots after last sweep", s.RedundancyDebt))
		}
		if s.RepairPending {
			reasons = append(reasons, "repair pending: provider death newer than last repair sweep")
		}
		if n := a.electionsSince(in.now.Add(-electionChurnWindow).UnixNano()); in.vm != nil && n > 1 {
			reasons = append(reasons, fmt.Sprintf("election churn: %d leader elections in the last %v", n, electionChurnWindow))
		}
		// Open circuit breakers mark gray peers: some node has stopped
		// asking first a peer that is slow or erroring but not dead.
		s.OpenBreakers = a.openBreakers()
		s.BreakersOpen = len(s.OpenBreakers)
		if s.BreakersOpen > 0 {
			reasons = append(reasons, fmt.Sprintf("circuit breakers open: %d (%s)",
				s.BreakersOpen, strings.Join(s.OpenBreakers, ", ")))
		}
	}

	// Latency rollup: merge every provider's histograms.
	var get, put stats.HistogramSnapshot
	for _, hs := range in.latency {
		get.Merge(hs[0])
		put.Merge(hs[1])
	}
	if get.Count > 0 {
		s.ReadP50 = get.Quantile(0.50).Nanoseconds()
		s.ReadP99 = get.Quantile(0.99).Nanoseconds()
		s.ReadMax = get.Max().Nanoseconds()
	}
	if put.Count > 0 {
		s.WriteP50 = put.Quantile(0.50).Nanoseconds()
		s.WriteP99 = put.Quantile(0.99).Nanoseconds()
		s.WriteMax = put.Max().Nanoseconds()
	}

	// Verdict: red for conditions needing an operator, yellow for
	// degradation the cluster heals on its own, green otherwise.
	switch {
	case noLeader:
		s.Health = HealthRed
	case a != nil && a.lastUnrepT > 0 && a.lastUnrepT > a.lastCleanT:
		s.Health = HealthRed
		reasons = append(reasons, "unrepairable pages: a sweep found stripes with too few survivors")
	case len(reasons) > 0:
		s.Health = HealthYellow
	default:
		s.Health = HealthGreen
	}
	s.Reasons = reasons
	return s
}
