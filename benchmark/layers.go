package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"blob/internal/core"
	"blob/internal/diskstore"
	"blob/internal/erasure"
	"blob/internal/provider"
	"blob/internal/rpc"
)

// snapshot is the state of every counter the benchmark reads from
// outside the layers, taken between steps while no op is in flight.
type snapshot struct {
	at  time.Time
	cpu map[string]time.Duration // by node role, plus "loadgen"

	// Filled on traced runs only.
	hedges, readRepairs, parityBytes int64
	cacheHits, cacheMisses           int64
	provGets                         int64
	dhtGets, dhtPuts                 uint64
	handlers                         handlerTotals
	// The load process's own counters are process-wide, and fetching the
	// remote ones above moves them: before (read first) closes a step,
	// after (read last) opens the next.
	before, after localCounters
}

// localCounters are the process-wide counters of the load process.
type localCounters struct {
	mallocs, allocBytes                       uint64
	rpcCalls, rpcFrames, rpcSent, rpcReceived int64
}

func readLocalCounters() localCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return localCounters{
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		rpcCalls: rpc.M.CallsSent.Value(), rpcFrames: rpc.M.FramesSent.Value(),
		rpcSent: rpc.M.BytesSent.Value(), rpcReceived: rpc.M.BytesReceived.Value(),
	}
}

// snapshot reads CPU time and, when full, every per-layer counter.
// Remote counters are fetched through a client of their own so that the
// load clients' pools and caches are left alone.
func (r *run) snapshot(ctx context.Context, full bool) (*snapshot, error) {
	s := &snapshot{at: time.Now()}
	var err error
	if s.cpu, err = r.topo.cpuByRole(); err != nil {
		return nil, err
	}
	if !full {
		return s, nil
	}
	s.before = readLocalCounters()
	admin, err := r.topo.client(ctx, core.Options{})
	if err != nil {
		return nil, err
	}
	defer admin.Close()
	if s.provGets, _, err = providerStats(ctx, admin); err != nil {
		return nil, err
	}
	dhts, err := admin.Meta().StoreStats(ctx)
	if err != nil {
		return nil, err
	}
	for _, d := range dhts {
		s.dhtGets += d.Gets
		s.dhtPuts += d.Puts
	}
	if s.handlers, err = r.topo.scrapeHandlers(ctx); err != nil {
		return nil, err
	}
	for _, cl := range r.clients {
		s.hedges += cl.c.HedgedReads.Value()
		s.readRepairs += cl.c.ReadRepairs.Value()
		s.parityBytes += cl.c.ParityBytes.Value()
		cs := cl.c.Meta().CacheStats()
		s.cacheHits += cs.Hits
		s.cacheMisses += cs.Misses
	}
	s.after = readLocalCounters()
	return s, nil
}

// replayRead repeats one read layer by layer with the same inputs,
// calling each layer's public entry point bare: the version step (for
// unpinned reads), the metadata plan, then one MGetPages exchange per
// provider of the plan, all at once as the read path issues them.
func (cl *client) replayRead(ctx context.Context, r *run, op, off uint64) error {
	w := r.w
	ri, rid := cl.log.begin(op, 0, "replay")
	if w.op == opRead {
		i, _ := cl.log.begin(op, rid, "vmanager.latest")
		_, _, err := cl.c.VersionManager().Latest(ctx, cl.b.ID())
		cl.latest = append(cl.latest, cl.log.end(i))
		if err != nil {
			return err
		}
	}
	i, _ := cl.log.begin(op, rid, "mstore.readplan")
	leaves, err := cl.b.ReadMeta(ctx, off, w.opBytes, r.readV)
	cl.readplan = append(cl.readplan, cl.log.end(i))
	if err != nil {
		return err
	}

	type group struct {
		refs []provider.PageRef
		dsts [][]byte
	}
	groups := make(map[uint32]*group)
	first := off / w.pageSize
	for _, l := range leaves {
		if l.Leaf.Write == 0 {
			continue
		}
		id := l.Leaf.Providers[0]
		g := groups[id]
		if g == nil {
			g = &group{}
			groups[id] = g
		}
		g.refs = append(g.refs, provider.PageRef{Blob: cl.b.ID(), Write: l.Leaf.Write, RelPage: l.Leaf.RelPage})
		g.dsts = append(g.dsts, cl.buf[(l.Page-first)*w.pageSize:(l.Page-first+1)*w.pageSize])
	}
	gi, gid := cl.log.begin(op, rid, "provider.getpages")
	var mu sync.Mutex // guards cl.log and cl.getpagesCall among the fan-out
	var wg sync.WaitGroup
	errs := make(chan error, len(groups))
	for id, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			ci, _ := cl.log.begin(op, gid, "rpc.MGetPages")
			mu.Unlock()
			body := provider.EncodeGetPages(g.refs)
			status := make([]provider.PageStatus, len(g.refs))
			err := cl.c.Pool().CallWith(ctx, r.provs[id], provider.MGetPages, body, func(resp []byte) error {
				return provider.DecodeGetPagesInto(resp, g.dsts, status)
			})
			mu.Lock()
			cl.getpagesCall = append(cl.getpagesCall, cl.log.end(ci))
			mu.Unlock()
			for _, st := range status {
				if err == nil && st != provider.PageOK {
					err = fmt.Errorf("provider %d: page not served", id)
				}
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	cl.getpages = append(cl.getpages, cl.log.end(gi))
	cl.replayTotal = append(cl.replayTotal, cl.log.end(ri))
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	// The replay must have fetched what the read did.
	return checkPages(cl.buf[:w.opBytes], first, r.model, r.seed, w.pageSize, false, cl.scratch)
}

// probes are the in-process isolation measurements (source (d)): each
// layer's public entry points driven bare, sized by the workload's
// page and op size, after the topology is gone.
type probes struct {
	echo64us, echo1MiBMBps      float64
	diskGetUs, diskPutUs        float64
	encodeMBps, reconstructMBps float64
}

const (
	probeEchoMethod = 0x7e57
	probeBytes      = 32 * mib // data volume of each store and codec probe
)

func runProbes(ctx context.Context, w *workload, dir string) (probes, error) {
	var p probes
	var err error
	if p.echo64us, p.echo1MiBMBps, err = probeRPC(ctx); err != nil {
		return p, fmt.Errorf("rpc probe: %w", err)
	}
	if p.diskPutUs, p.diskGetUs, err = probeDiskstore(w, dir); err != nil {
		return p, fmt.Errorf("diskstore probe: %w", err)
	}
	if p.encodeMBps, p.reconstructMBps, err = probeErasure(w); err != nil {
		return p, fmt.Errorf("erasure probe: %w", err)
	}
	return p, nil
}

// probeRPC times Pool.Call round trips to an echo handler on loopback:
// the median of small calls, and the payload rate of 1 MiB calls
// (counting both directions).
func probeRPC(ctx context.Context) (smallUs, bigMBps float64, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := rpc.NewServer()
	srv.Handle(probeEchoMethod, func(_ context.Context, body []byte) ([]byte, error) {
		return append([]byte(nil), body...), nil
	})
	srv.Start(l)
	defer srv.Close()
	pool := rpc.NewPool(rpc.TCP{})
	defer pool.Close()
	addr := l.Addr().String()

	call := func(body []byte, n int) ([]time.Duration, error) {
		ds := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			t := time.Now()
			if _, err := pool.Call(ctx, addr, probeEchoMethod, body); err != nil {
				return nil, err
			}
			ds = append(ds, time.Since(t))
		}
		return ds, nil
	}
	small, err := call(make([]byte, 64), 3000)
	if err != nil {
		return 0, 0, err
	}
	big, err := call(make([]byte, mib), 150)
	if err != nil {
		return 0, 0, err
	}
	// The first calls dial and grow buffers; the medians ignore them.
	smallUs = float64(percentile(small, 50)) / float64(time.Microsecond)
	bigMBps = 2 / percentile(big, 50).Seconds()
	return smallUs, bigMBps, nil
}

// probeDiskstore times PutPages in op-sized batches and GetPage at
// random, per page, on a store of its own with the providers' options.
func probeDiskstore(w *workload, dir string) (putUs, getUs float64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := diskstore.Open(diskstore.Options{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	batch := int(w.opBytes / w.pageSize)
	pages := int(probeBytes / w.pageSize)
	data := make([]byte, w.opBytes)
	fillPage(data, 1, 1, 1)
	var put time.Duration
	for first := 0; first < pages; first += batch {
		ps := make([]diskstore.Page, batch)
		for i := range ps {
			ps[i] = diskstore.Page{Blob: 1, Write: 1, Rel: uint32(first + i), Data: data[uint64(i)*w.pageSize : uint64(i+1)*w.pageSize]}
		}
		t := time.Now()
		if _, err := st.PutPages(ps); err != nil {
			return 0, 0, err
		}
		put += time.Since(t)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	t := time.Now()
	for i := 0; i < pages; i++ {
		if _, ok := st.GetPage(1, 1, uint32(rng.IntN(pages))); !ok {
			return 0, 0, fmt.Errorf("page not found")
		}
	}
	get := time.Since(t)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(pages) }
	return us(put), us(get), nil
}

// probeErasure times rs(2,1) Encode and a one-data-shard Reconstruct
// over page-sized shards, in MB of user data per second.
func probeErasure(w *workload) (encMBps, recMBps float64, err error) {
	code, err := erasure.Cached(2, 1)
	if err != nil {
		return 0, 0, err
	}
	a, b := make([]byte, w.pageSize), make([]byte, w.pageSize)
	fillPage(a, 1, 1, 1)
	fillPage(b, 1, 1, 2)
	stripes := int(probeBytes / (2 * w.pageSize))
	var parity [][]byte
	t := time.Now()
	for i := 0; i < stripes; i++ {
		if parity, err = code.Encode([][]byte{a, b}); err != nil {
			return 0, 0, err
		}
	}
	enc := time.Since(t)
	t = time.Now()
	for i := 0; i < stripes; i++ {
		if err = code.Reconstruct([][]byte{nil, b, parity[0]}); err != nil {
			return 0, 0, err
		}
	}
	rec := time.Since(t)
	mb := float64(probeBytes) / mib
	return mb / enc.Seconds(), mb / rec.Seconds(), nil
}
