// Package monitor implements the cluster health plane's aggregator: a
// process that polls every node's stats, status and event-tail RPCs,
// rolls them up into one ClusterSnapshot (capacity, the vmanager leader,
// redundancy debt, merged latency quantiles, a green/yellow/red
// verdict with reasons) and serves the result three ways — the
// MCluster RPC for blobctl top, and /cluster/metrics, /cluster/healthz
// and /cluster/events on an admin HTTP listener for scrapers and
// probes. Semantics are specified in docs/observability.md.
//
// The monitor is a pure observer: it holds no cluster state, issues
// only read RPCs, and any number of monitors may watch one deployment.
// Everything it reports is reconstructed from poll responses, so a
// restarted monitor converges within one poll (event-derived aggregates
// like debt converge at the next repair sweep).
package monitor

import (
	"context"
	"sort"
	"sync"
	"time"

	"blob/internal/pmanager"
	"blob/internal/provider"
	"blob/internal/rpc"
	"blob/internal/stats"
	"blob/internal/trace"
	"blob/internal/vmanager"
)

// Config describes what to watch and how often.
type Config struct {
	// Pool is the RPC client pool used for every poll. The monitor does
	// not close it.
	Pool *rpc.Pool
	// PMAddr is the provider manager's RPC address (required: provider
	// membership is discovered from it every poll).
	PMAddr string
	// VMReplicas lists the version-manager group's replica addresses.
	// Left empty, the monitor skips leader checks.
	VMReplicas []string
	// EventNodes are additional RPC addresses to tail MEvents from,
	// beyond the provider manager, vmanager replicas and providers —
	// e.g. the node hosting the repair agent.
	EventNodes []string
	// Interval is the poll period (default 1s).
	Interval time.Duration
	// Logf, when set, receives poll-loop diagnostics.
	Logf func(format string, args ...any)
}

const (
	// callTimeout bounds each individual poll RPC, clamped to
	// Config.Interval when the interval is shorter.
	callTimeout = 2 * time.Second
	// eventTail caps the merged recent-events buffer.
	eventTail = 512
)

// Monitor polls the cluster and maintains the latest ClusterSnapshot.
type Monitor struct {
	cfg Config

	mu      sync.Mutex
	snap    ClusterSnapshot
	cursors map[string]cursor // per-node MEvents cursor
	tail    []trace.Event     // merged recent events, oldest first
	agg     eventAgg
	rates   rateTracker
	polls   int64

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// cursor is how far the monitor has read one node's event ring: the
// latest sequence number seen, and the recorder incarnation it belongs
// to.
type cursor struct{ inc, seq uint64 }

// New creates a monitor; Start begins polling.
func New(cfg Config) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	return &Monitor{
		cfg:     cfg,
		cursors: make(map[string]cursor),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the poll loop (first poll immediately, then every
// Interval).
func (m *Monitor) Start() {
	go func() {
		defer close(m.done)
		m.Poll(context.Background())
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.Poll(context.Background())
			}
		}
	}()
}

// Close stops the poll loop and waits for it to exit.
func (m *Monitor) Close() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}

// Snapshot returns the latest rolled-up cluster view. The zero
// snapshot (Health == "") means no poll has completed yet.
func (m *Monitor) Snapshot() ClusterSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.snap
	// Aliased slices are never mutated in place (each poll builds fresh
	// ones), so handing them out without copying is safe.
	return s
}

// EventsSince returns the merged event tail with Time > since and
// severity >= minSev, oldest first.
func (m *Monitor) EventsSince(since int64, minSev trace.Severity) []trace.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []trace.Event
	for _, e := range m.tail {
		if e.Time > since && e.Sev >= minSev {
			out = append(out, e)
		}
	}
	return out
}

// Polls returns how many polls have completed (for overhead tests).
func (m *Monitor) Polls() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.polls
}

func (m *Monitor) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf("monitor: "+format, args...)
	}
}

// call wraps one poll RPC in its timeout.
func (m *Monitor) call(ctx context.Context, f func(context.Context) error) error {
	cctx, cancel := context.WithTimeout(ctx, min(callTimeout, m.cfg.Interval))
	defer cancel()
	return f(cctx)
}

// Poll runs one collection round and publishes the resulting snapshot.
// The loop calls it on its ticker; tests may call it directly.
func (m *Monitor) Poll(ctx context.Context) ClusterSnapshot {
	now := time.Now()
	in := rollupInput{now: now}

	// Membership first: it names the providers everything else polls.
	var ms pmanager.Membership
	in.pmErr = m.call(ctx, func(c context.Context) (err error) {
		ms, err = pmanager.FetchMembers(c, m.cfg.Pool, m.cfg.PMAddr)
		return err
	})
	in.membership = ms

	// Fan out the per-node polls; each has its own timeout, so one dead
	// node cannot stall the round past callTimeout.
	var wg sync.WaitGroup
	var collMu sync.Mutex
	in.provStats = make(map[uint32]provider.Stats)
	in.latency = make(map[uint32][2]stats.HistogramSnapshot)

	eventTargets := map[string]bool{m.cfg.PMAddr: true}
	for _, a := range m.cfg.EventNodes {
		eventTargets[a] = true
	}
	for _, a := range m.cfg.VMReplicas {
		eventTargets[a] = true
	}
	for _, mem := range ms.Members {
		if mem.Alive {
			eventTargets[mem.Addr] = true
		}
		if !mem.Alive {
			continue
		}
		mem := mem
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st provider.Stats
			err := m.call(ctx, func(c context.Context) error {
				resp, err := m.cfg.Pool.Call(c, mem.Addr, provider.MStats, nil)
				if err != nil {
					return err
				}
				st, err = provider.DecodeStats(resp)
				return err
			})
			if err != nil {
				m.logf("stats %s: %v", mem.Addr, err)
				return
			}
			var get, put stats.HistogramSnapshot
			if err := m.call(ctx, func(c context.Context) (err error) {
				get, put, err = provider.FetchLatency(c, m.cfg.Pool, mem.Addr)
				return err
			}); err != nil {
				m.logf("latency %s: %v", mem.Addr, err)
			}
			collMu.Lock()
			in.provStats[mem.ID] = st
			in.latency[mem.ID] = [2]stats.HistogramSnapshot{get, put}
			collMu.Unlock()
		}()
	}

	// Version-plane status (replicas polled sequentially — there are
	// few).
	var vm *VMRoll
	if len(m.cfg.VMReplicas) > 0 {
		vm = &VMRoll{Leader: -1, Replicas: len(m.cfg.VMReplicas)}
		wg.Add(1)
		go func(roll *VMRoll) {
			defer wg.Done()
			for rIdx, addr := range m.cfg.VMReplicas {
				var st vmanager.ReplicaStatus
				err := m.call(ctx, func(c context.Context) error {
					resp, err := m.cfg.Pool.Call(c, addr, vmanager.MVmStatus, nil)
					if err != nil {
						return err
					}
					st, err = vmanager.DecodeReplicaStatus(resp)
					return err
				})
				if err != nil {
					continue
				}
				roll.Reachable++
				if st.Term > roll.Term {
					roll.Term = st.Term
				}
				if st.LogLen > roll.LogLen {
					roll.LogLen = st.LogLen
				}
				if st.Blobs > roll.Blobs {
					roll.Blobs = st.Blobs
				}
				if st.IsLeader {
					roll.Leader = rIdx
				}
			}
		}(vm)
	}

	// Event tails, incremental per node.
	var freshMu sync.Mutex
	var fresh []trace.Event
	for addr := range eventTargets {
		addr := addr
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.mu.Lock()
			cur := m.cursors[addr]
			m.mu.Unlock()
			var tail trace.EventTail
			err := m.call(ctx, func(c context.Context) error {
				resp, err := m.cfg.Pool.Call(c, addr, trace.MEvents, trace.EncodeEventsQuery(cur.seq, trace.SevInfo))
				if err != nil {
					return err
				}
				tail, err = trace.DecodeEvents(resp)
				return err
			})
			if err != nil {
				return
			}
			if tail.Incarnation != cur.inc && cur.seq > 0 {
				// The node restarted, and its new recorder numbers events
				// from 1 again: this reply skipped 1..cur.seq. Drop it and
				// collect the new incarnation from the top next poll.
				tail = trace.EventTail{Incarnation: tail.Incarnation}
			}
			m.mu.Lock()
			m.cursors[addr] = cursor{inc: tail.Incarnation, seq: tail.Latest}
			m.mu.Unlock()
			freshMu.Lock()
			fresh = append(fresh, tail.Events...)
			freshMu.Unlock()
		}()
	}
	wg.Wait()
	in.vm = vm

	// Merge fresh events into the bounded tail and the aggregates.
	sort.SliceStable(fresh, func(i, j int) bool { return fresh[i].Time < fresh[j].Time })

	m.mu.Lock()
	m.agg.ingest(fresh)
	m.tail = append(m.tail, fresh...)
	if len(m.tail) > eventTail {
		m.tail = append([]trace.Event(nil), m.tail[len(m.tail)-eventTail:]...)
	}
	in.agg = &m.agg
	in.tail = append([]trace.Event(nil), m.tail...)
	rates := make(map[uint32][2]float64, len(in.provStats))
	for id, st := range in.provStats {
		g, p := m.rates.rates(id, st, now)
		rates[id] = [2]float64{g, p}
	}
	m.rates.advance(now)
	in.provRates = rates

	snap := rollup(in)
	m.snap = snap
	m.polls++
	m.mu.Unlock()
	return snap
}
