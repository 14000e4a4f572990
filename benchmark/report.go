package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"
)

// endStats is read once, after the load stops and before teardown.
type endStats struct {
	diskBytes int64  // every provider's segment-file bytes
	userBytes uint64 // bytes of every acked write, preload included
	peakRSS   int64  // largest blobnode peak resident set
}

func (r *run) finalStats(ctx context.Context) (endStats, error) {
	var e endStats
	var err error
	if _, e.diskBytes, err = providerStats(ctx, r.clients[0].c); err != nil {
		return e, err
	}
	for _, cl := range r.clients {
		for _, a := range cl.acked {
			e.userBytes += a.nPages * r.w.pageSize
		}
	}
	e.peakRSS, err = r.topo.peakRSS()
	return e, err
}

// stepSamples gathers one step's latencies over all clients.
func (r *run) stepSamples(i int) (reads, writes, late []time.Duration) {
	for _, cl := range r.clients {
		for _, s := range cl.samples[i] {
			if s.write {
				writes = append(writes, s.lat)
			} else {
				reads = append(reads, s.lat)
			}
			late = append(late, s.late)
		}
	}
	return reads, writes, late
}

// samples gathers the latencies of every counted (traced false) or
// every traced step.
func (r *run) samples(traced bool) (reads, writes, late []time.Duration) {
	for i, st := range r.steps {
		if st.traced == traced && (st.traced || st.counted) {
			rd, wr, lt := r.stepSamples(i)
			reads, writes, late = append(reads, rd...), append(writes, wr...), append(late, lt...)
		}
	}
	return reads, writes, late
}

// counted sums f's growth over the counted steps, and their length.
func (r *run) counted(f func(s *snapshot) float64) float64 {
	var d float64
	for _, st := range r.steps {
		if st.counted {
			d += f(st.close) - f(st.open)
		}
	}
	return d
}

// countedLocal is counted for the load process's own counters, which
// each snapshot reads on both sides of its remote fetches.
func (r *run) countedLocal(f func(c *localCounters) float64) float64 {
	var d float64
	for _, st := range r.steps {
		if st.counted {
			d += f(&st.close.before) - f(&st.open.after)
		}
	}
	return d
}

func (r *run) countedWindow() time.Duration {
	var d time.Duration
	for _, st := range r.steps {
		if st.counted {
			d += st.end.Sub(st.start)
		}
	}
	return d
}

// primary picks the samples of the op the workload is about: writes on
// a write workload, otherwise reads (on survey-mixed, the reader's).
func (r *run) primary(reads, writes []time.Duration) ([]time.Duration, string) {
	if r.w.op == opWrite {
		return writes, "write"
	}
	return reads, "read"
}

func cpuAll(s *snapshot) float64 {
	var d time.Duration
	for _, v := range s.cpu {
		d += v
	}
	return ms(d)
}

// sliceRates cuts the counted steps at their ticks and returns, per
// slice, verified ops per second, CPU ms per op and the median latency
// of the workload's primary op.
func (r *run) sliceRates() (opsPerSec, cpuPerOp, p50 []float64) {
	for i, st := range r.steps {
		if !st.counted {
			continue
		}
		for j := 0; j+1 < len(st.ticks); j++ {
			a, b := st.ticks[j], st.ticks[j+1]
			var reads, writes []time.Duration
			for _, cl := range r.clients {
				for _, s := range cl.samples[i] {
					if s.done.Before(a.at) || !s.done.Before(b.at) {
						continue
					}
					if s.write {
						writes = append(writes, s.lat)
					} else {
						reads = append(reads, s.lat)
					}
				}
			}
			ops := float64(len(reads) + len(writes))
			opsPerSec = append(opsPerSec, ops/b.at.Sub(a.at).Seconds())
			if ops > 0 {
				cpuPerOp = append(cpuPerOp, (cpuAll(b)-cpuAll(a))/ops)
			}
			if lat, _ := r.primary(reads, writes); len(lat) > 0 {
				p50 = append(p50, ms(percentile(lat, 50)))
			}
		}
	}
	return opsPerSec, cpuPerOp, p50
}

// median is the median of vs, 0 when vs is empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	_, m, _ := quartiles(vs)
	return m
}

// endToEndMetrics computes the -trace 0 result from the counted window.
// ops_s, p50_ms and cpu_ms_per_op are computed per one-second slice and
// reported as the median over the slices, so that a stall of a second
// or two — another tenant of the machine, a segment fsync — does not
// move them.
func (r *run) endToEndMetrics(out io.Writer, setupTimes []time.Duration, end endStats) map[string]value {
	reads, writes, late := r.samples(false)
	lat, op := r.primary(reads, writes)
	opsPerSec, cpuPerOp, p50 := r.sliceRates()

	m := newMetricSet(endToEnd)
	m.set("setup_s", percentile(setupTimes, 50).Seconds())
	m.set("ops_s", median(opsPerSec))
	m.set("p50_ms", median(p50))
	m.set("cpu_ms_per_op", median(cpuPerOp))
	m.set("disk_bytes_per_user_byte", ratio(float64(end.diskBytes), float64(end.userBytes)))

	window := r.countedWindow().Seconds()
	fmt.Fprintf(out, "window %.3fs: %d reads, %d writes verified, %.1f ops/s; %s p50 %.3f ms p99 %.3f ms (n=%d); set-ups %v\n",
		window, len(reads), len(writes), float64(len(reads)+len(writes))/window, op, ms(percentile(lat, 50)), ms(percentile(lat, 99)), len(lat), setupTimes)
	fmt.Fprintf(out, "slices ops_s %.1f\nslices p50_ms %.3f\nslices cpu_ms_per_op %.3f\n", opsPerSec, p50, cpuPerOp)
	if r.w.open() {
		fmt.Fprintf(out, "open loop: write p50 %.3f ms (n=%d, from due time); generator late p50 %.3f ms max %.3f ms\n",
			ms(percentile(writes, 50)), len(writes), ms(percentile(late, 50)), ms(percentile(late, 100)))
	}
	return m.complete()
}

// handlerMs sums rpc_handler_seconds over the methods of one layer
// (name prefix) up to this snapshot, in ms, with the call count.
func (s *snapshot) handlerMs(prefix string) (sumMs float64, calls int64) {
	for method, t := range s.handlers {
		if strings.HasPrefix(method, prefix) {
			sumMs += t.sum * 1000
			calls += t.count
		}
	}
	return sumMs, calls
}

// perLayerMetrics computes the -trace 1 result: counters from the
// counted steps (untraced, so no replay calls pollute them), timings
// from the traced step's spans and replays, and the isolation probes.
// It prints the budget table.
func (r *run) perLayerMetrics(out io.Writer, spans []span, end endStats, pr probes) map[string]value {
	w := r.w
	m := newMetricSet(perLayer)

	// Counted steps: counts per op.
	readsA, writesA, late := r.samples(false)
	nr, nw := float64(len(readsA)), float64(len(writesA))
	ops := nr + nw
	userBytes := ops * float64(w.opBytes)
	per := func(f func(*snapshot) float64, n float64) float64 { return ratio(r.counted(f), n) }
	perLocal := func(f func(*localCounters) float64, n float64) float64 { return ratio(r.countedLocal(f), n) }
	m.set("core.allocs_per_op", perLocal(func(c *localCounters) float64 { return float64(c.mallocs) }, ops))
	m.set("core.alloc_kb_per_op", perLocal(func(c *localCounters) float64 { return float64(c.allocBytes) / kib }, ops))
	m.set("core.read_p50_ms", ms(percentile(readsA, 50)))
	m.set("core.read_p99_ms", ms(percentile(readsA, 99)))
	m.set("core.write_p50_ms", ms(percentile(writesA, 50)))
	m.set("core.write_p99_ms", ms(percentile(writesA, 99)))
	m.set("core.hedges_per_kop", 1000*per(func(s *snapshot) float64 { return float64(s.hedges) }, ops))
	m.set("core.read_repairs_per_kop", 1000*per(func(s *snapshot) float64 { return float64(s.readRepairs) }, ops))
	hits := r.counted(func(s *snapshot) float64 { return float64(s.cacheHits) })
	misses := r.counted(func(s *snapshot) float64 { return float64(s.cacheMisses) })
	m.set("mstore.cache_hit_ratio", ratio(hits, hits+misses))
	m.set("dht.gets_per_read", per(func(s *snapshot) float64 { return float64(s.dhtGets) }, nr))
	m.set("dht.puts_per_write", per(func(s *snapshot) float64 { return float64(s.dhtPuts) }, nw))
	m.set("rpc.calls_per_op", perLocal(func(c *localCounters) float64 { return float64(c.rpcCalls) }, ops))
	m.set("rpc.frames_per_op", perLocal(func(c *localCounters) float64 { return float64(c.rpcFrames) }, ops))
	m.set("rpc.wire_bytes_per_user_byte", perLocal(func(c *localCounters) float64 { return float64(c.rpcSent + c.rpcReceived) }, userBytes))
	m.set("provider.pages_served_per_read", per(func(s *snapshot) float64 { return float64(s.provGets) }, nr))
	m.set("erasure.parity_bytes_per_user_byte", per(func(s *snapshot) float64 { return float64(s.parityBytes) }, nw*float64(w.opBytes)))
	for _, h := range []struct{ metric, prefix string }{
		{"vmanager.handler_ms_per_op", "vmanager."},
		{"dht.handler_ms_per_op", "dht."},
		{"pmanager.handler_ms_per_op", "pmanager."},
		{"provider.get_handler_ms_per_op", "provider.MGetPages"},
		{"provider.put_handler_ms_per_op", "provider.MPutPages"},
	} {
		m.set(h.metric, per(func(s *snapshot) float64 { sum, _ := s.handlerMs(h.prefix); return sum }, ops))
	}
	for _, c := range []struct{ metric, role string }{
		{"blobnode.provider_cpu_ms_per_op", "provider"},
		{"blobnode.vmanager_cpu_ms_per_op", "vmanager"},
		{"blobnode.pmanager_cpu_ms_per_op", "pmanager"},
		{"loadgen.cpu_ms_per_op", "loadgen"},
	} {
		m.set(c.metric, per(func(s *snapshot) float64 { return ms(s.cpu[c.role]) }, ops))
	}
	m.set("blobnode.rss_mb_max", float64(end.peakRSS)/mib)
	if w.open() {
		m.set("loadgen.late_p50_ms", ms(percentile(late, 50)))
		m.set("loadgen.late_max_ms", ms(percentile(late, 100)))
	}

	// Probes.
	m.set("rpc.echo_64b_us", pr.echo64us)
	m.set("rpc.echo_1mib_mbps", pr.echo1MiBMBps)
	m.set("diskstore.get_us_per_page", pr.diskGetUs)
	m.set("diskstore.put_us_per_page", pr.diskPutUs)
	m.set("erasure.encode_mbps", pr.encodeMBps)
	m.set("erasure.reconstruct_mbps", pr.reconstructMBps)

	// The traced step: timings. Phase spans are grouped by the name of
	// the op span they hang under; replay timings were gathered as they
	// ran.
	readsB, writesB, _ := r.samples(true)
	latA, _ := r.primary(readsA, writesA)
	latB, opName := r.primary(readsB, writesB)
	m.set("trace.overhead_pct", 100*ratio(ms(percentile(latB, 50))-ms(percentile(latA, 50)), ms(percentile(latA, 50))))

	var replayTotal, latest, readplan, getpages, calls []time.Duration
	for _, cl := range r.clients {
		replayTotal = append(replayTotal, cl.replayTotal...)
		latest = append(latest, cl.latest...)
		readplan = append(readplan, cl.readplan...)
		getpages = append(getpages, cl.getpages...)
		calls = append(calls, cl.getpagesCall...)
	}

	// A provider exchange as the client sees it, less the mean time
	// its handler ran during the same (traced) step.
	for _, st := range r.steps {
		if st.traced && len(calls) > 0 {
			s0, c0 := st.open.handlerMs("provider.MGetPages")
			s1, c1 := st.close.handlerMs("provider.MGetPages")
			m.set("provider.wait_ms", ms(percentile(calls, 50))-ratio(s1-s0, float64(c1-c0)))
		}
	}
	m.set("vmanager.latest_ms", ms(percentile(latest, 50)))

	// Ops that report their own phases (a) are described by their median
	// op, whose parts sum to it; ReadPinned reports none, so the replayed
	// layers' medians stand in and core's share is what the op costs
	// beyond them.
	var readRows, writeRows []budgetRow
	readP50, writeP50 := ms(percentile(readsB, 50)), ms(percentile(writesB, 50))
	switch {
	case len(readsB) > 0 && w.op == opRead:
		mo := medianOpOf(spans, "core.Read")
		readP50 = mo.total
		// The version step is inside the op's self time; the replay
		// says how much of it.
		latestMs := min(ms(percentile(latest, 50)), mo.self)
		m.set("mstore.readplan_ms", mo.exposed["mstore.readplan"])
		m.set("provider.getpages_ms", mo.exposed["provider.getpages"])
		m.set("core.self_ms", mo.self-latestMs)
		readRows = []budgetRow{
			{"vmanager.latest_ms", latestMs},
			{"mstore.readplan_ms", mo.exposed["mstore.readplan"]},
			{"provider.getpages_ms", mo.exposed["provider.getpages"]},
		}
	case len(readsB) > 0:
		m.set("mstore.readplan_ms", ms(percentile(readplan, 50)))
		m.set("provider.getpages_ms", ms(percentile(getpages, 50)))
		m.set("core.self_ms", max(0, readP50-ms(percentile(replayTotal, 50))))
		readRows = []budgetRow{
			{"mstore.readplan_ms", m.vals["mstore.readplan_ms"].Value},
			{"provider.getpages_ms", m.vals["provider.getpages_ms"].Value},
		}
	}
	if len(writesB) > 0 {
		mo := medianOpOf(spans, "core.Write")
		writeP50 = mo.total
		m.set("provider.push_ms", mo.exposed["provider.push"])
		m.set("vmanager.assign_ms", mo.whole["vmanager.assign"])
		m.set("vmanager.assign_exposed_ms", mo.exposed["vmanager.assign"])
		m.set("mstore.store_ms", mo.exposed["mstore.store"])
		m.set("vmanager.commit_ms", mo.exposed["vmanager.commit"])
		writeRows = []budgetRow{
			{"provider.push_ms", mo.exposed["provider.push"]},
			{"vmanager.assign_exposed_ms", mo.exposed["vmanager.assign"]},
			{"mstore.store_ms", mo.exposed["mstore.store"]},
			{"vmanager.commit_ms", mo.exposed["vmanager.commit"]},
			{"core.self_ms", mo.self},
		}
		if w.op == opWrite {
			m.set("core.self_ms", mo.self)
		}
	}

	// The budget: rows sum to the traced median op, the remainder is
	// core.unattributed_ms (negative when replayed layers' medians
	// overlap).
	finish := func(rows []budgetRow, p50 float64) []budgetRow {
		var sum float64
		for _, row := range rows {
			sum += row.ms
		}
		return append(rows, budgetRow{"core.unattributed_ms", p50 - sum})
	}
	fmt.Fprintf(out, "untraced %.3fs: %d reads, %d writes; traced: %d reads, %d writes, %d replays\n",
		r.countedWindow().Seconds(), len(readsA), len(writesA), len(readsB), len(writesB), len(replayTotal))
	for i, st := range r.steps {
		reads, writes, _ := r.stepSamples(i)
		fmt.Fprintf(out, "  step %d (%v, counted=%v traced=%v): read p50 %.3f ms (n=%d), write p50 %.3f ms (n=%d)\n",
			i, st.dur, st.counted, st.traced, ms(percentile(reads, 50)), len(reads), ms(percentile(writes, 50)), len(writes))
	}
	if w.op != opWrite {
		readRows = finish(append(readRows, budgetRow{"core.self_ms", m.vals["core.self_ms"].Value}), readP50)
		m.set("core.unattributed_ms", readRows[len(readRows)-1].ms)
		printBudget(out, w.Name, opName, len(readsB), readP50, readRows)
	}
	if len(writesB) > 0 {
		writeRows = finish(writeRows, writeP50)
		if w.op == opWrite {
			m.set("core.unattributed_ms", writeRows[len(writeRows)-1].ms)
		}
		printBudget(out, w.Name, "write", len(writesB), writeP50, writeRows)
		fmt.Fprintf(out, "  (vmanager.assign_ms %.3f ms runs beside the push; only its exposed part is a row)\n", m.vals["vmanager.assign_ms"].Value)
	}
	return m.complete()
}
