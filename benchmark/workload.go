package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blob/internal/core"
	"blob/internal/erasure"
	"blob/internal/meta"
)

const (
	kib = 1 << 10
	mib = 1 << 20

	numClients = 2 // load goroutines, one core.Client each (= nproc of the reference machine)

	fullCompareEvery = 64 // reads: stamp check on every page, full compare on 1 read in this many
	replayEvery      = 4  // traced step: 1 read in this many is replayed layer by layer
	verifySampleOf   = 10 // write runs: 1 op-sized segment in this many is read back at the end
)

type opKind int

const (
	opReadPinned opKind = iota // Blob.ReadPinned of a version pinned at set-up
	opRead                     // Blob.Read(v): one version-manager step, then the read
	opWrite                    // Blob.Write
)

// workload is one traffic shape. Sizes are bytes.
type workload struct {
	Name string
	Why  string // why the workload exists, one line (BENCHMARK.json carries it)

	pageSize  uint64
	blobBytes uint64
	opBytes   uint64
	opts      core.Options // the fields that differ from core's defaults
	op        opKind       // closed loop: what both clients do

	// Open loop (survey-mixed): client 0 reads the pinned version at
	// readRate while client 1 writes at writeRate; both zero = closed.
	readRate, writeRate float64

	// preload fills the first preloadBytes of the blob before the
	// warm-up.
	preloadBytes uint64
	preload      func(ctx context.Context, r *run) error
}

func (w *workload) open() bool { return w.readRate > 0 }

// The four workloads (README.md says why each exists and what it
// should move).
var workloads = []*workload{
	{
		Name:      "cutout-read",
		Why:       "1 MiB pinned reads, metadata cached: rpc framing, provider serve and diskstore get do the work; vmanager does none",
		pageSize:  64 * kib,
		blobBytes: 512 * mib,
		opBytes:   mib,
		opts:      core.Options{CacheNodes: -1},
		op:        opReadPinned,

		preloadBytes: 512 * mib,
		preload:      preloadSequential,
	},
	{
		Name:      "finegrain-read",
		Why:       "4 KiB reads of a deep tree far larger than the client cache: metadata descent round trips and the version step dominate",
		pageSize:  4 * kib,
		blobBytes: 64 * mib,
		opBytes:   4 * kib,
		opts:      core.Options{CacheNodes: 1024},
		op:        opRead,

		preloadBytes: 64 * mib,
		preload:      preloadFinegrain,
	},
	{
		Name:      "ingest-write",
		Why:       "1 MiB rs(2,1) writes at overlapping offsets: the data path the other way plus assign/commit, metadata store and erasure encode",
		pageSize:  64 * kib,
		blobBytes: 512 * mib,
		opBytes:   mib,
		opts:      core.Options{Redundancy: erasure.Redundancy{K: 2, M: 1}},
		op:        opWrite,

		// Exposures land on a survey that already has a base layer in
		// its first quarter, so new trees link to older versions; it
		// also gives setup_s something to time besides the boot.
		preloadBytes: 128 * mib,
		preload:      preloadSequential,
	},
	{
		Name:      "survey-mixed",
		Why:       "open loop at fixed rates: pinned 1 MiB reads of the pre-ingest version while 1 MiB exposures publish into the same r=2 blob",
		pageSize:  64 * kib,
		blobBytes: 256 * mib,
		opBytes:   mib,
		opts:      core.Options{DataReplicas: 2},
		op:        opReadPinned,
		readRate:  50,
		writeRate: 15,

		preloadBytes: 256 * mib,
		preload:      preloadSequential,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Page content is a deterministic function of (seed, write seq, page):
// a 24-byte stamp naming the three, then a xorshift stream keyed by
// them. A page no write touched reads as zeros (seq 0).
const stampLen = 24

func fillPage(dst []byte, seed, seq, page uint64) {
	binary.LittleEndian.PutUint64(dst[0:], seed)
	binary.LittleEndian.PutUint64(dst[8:], seq)
	binary.LittleEndian.PutUint64(dst[16:], page)
	x := seed ^ seq*0x9E3779B97F4A7C15 ^ page*0xBF58476D1CE4E5B9 | 1
	for i := stampLen; i+8 <= len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

// ackedWrite is one write the store acknowledged.
type ackedWrite struct {
	v         meta.Version
	seq       uint64
	firstPage uint64
	nPages    uint64
}

// step is one stretch of the load. Each step starts the load loops
// afresh and ends once every op begun in it has completed, so the
// counters read between steps cover exactly the step's samples. An
// end-to-end run is a warm-up and one counted window; a traced run
// sandwiches its traced half between two counted quarters, so that drift
// over the run (a growing tree, page-cache writeback) cancels when the
// two are compared.
type step struct {
	dur     time.Duration
	counted bool // untraced ops whose samples and counters are reported
	traced  bool // every op spanned, 1 read in replayEvery replayed

	start, end  time.Time   // first op due, last op done
	open, close *snapshot   // counters just before and just after
	ticks       []*snapshot // CPU time at each slice boundary, open and close included
}

// slice is how often CPU time is sampled inside a step; the end-to-end
// rates are computed per slice (report.go: endToEndMetrics).
const slice = time.Second

type sample struct {
	done  time.Time
	lat   time.Duration // closed loop: call duration; open loop: completion minus due time
	late  time.Duration // open loop: how long after its due time the op began
	write bool
}

// client is one load goroutine's state; nothing in it is shared while
// the loop runs.
type client struct {
	idx     int
	c       *core.Client
	b       *core.Blob
	rng     *rand.Rand
	seq     uint64
	ops     uint64
	buf     []byte
	scratch []byte // one page, for full compares
	acked   []ackedWrite
	log     *spanLog
	samples [][]sample // by step

	attempted, failed int64
	firstErr          error

	// replay durations gathered in the traced step
	replayTotal, latest, readplan, getpages, getpagesCall []time.Duration
}

// run is one workload execution against one booted topology.
type run struct {
	w       *workload
	seed    uint64
	topo    *topology
	clients []*client
	provs   map[uint32]string // provider id -> address, for replays

	readV meta.Version // the version reads address (pinned at set-up)
	model []uint64     // page -> seq of the write visible at readV

	steps  []step
	closed bool
}

func (cl *client) nextSeq() uint64 {
	cl.seq++
	return uint64(cl.idx+1)<<40 | cl.seq
}

func (cl *client) fail(err error) {
	cl.failed++
	if cl.firstErr == nil {
		cl.firstErr = err
	}
}

// newRun connects the clients and creates the workload's blob.
func newRun(ctx context.Context, w *workload, seed uint64, topo *topology, epoch time.Time) (*run, error) {
	r := &run{w: w, seed: seed, topo: topo, provs: make(map[uint32]string)}
	var blobID uint64
	for i := 0; i < numClients; i++ {
		c, err := topo.client(ctx, w.opts)
		if err != nil {
			r.close()
			return nil, err
		}
		cl := &client{
			idx: i, c: c,
			rng:     rand.New(rand.NewPCG(seed, uint64(i))),
			buf:     make([]byte, max(w.opBytes, 4*mib)),
			scratch: make([]byte, w.pageSize),
			log:     newSpanLog(epoch, i),
		}
		r.clients = append(r.clients, cl)
		if i == 0 {
			cl.b, err = c.CreateBlob(ctx, w.pageSize, w.blobBytes)
			if err == nil {
				blobID = cl.b.ID()
			}
		} else {
			cl.b, err = c.OpenBlob(ctx, blobID)
		}
		if err != nil {
			r.close()
			return nil, err
		}
	}
	provs, err := r.clients[0].c.AllProviders(ctx)
	if err != nil {
		r.close()
		return nil, err
	}
	for _, p := range provs {
		r.provs[p.ID] = p.Addr
	}
	return r, nil
}

func (r *run) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, cl := range r.clients {
		cl.c.Close()
	}
}

// writeAt writes n bytes of fresh content at off and records the ack.
func (cl *client) writeAt(ctx context.Context, r *run, off, n uint64, traced bool, op uint64) error {
	seq := cl.nextSeq()
	ps := r.w.pageSize
	first := off / ps
	for p := uint64(0); p < n/ps; p++ {
		fillPage(cl.buf[p*ps:(p+1)*ps], r.seed, seq, first+p)
	}
	var v meta.Version
	var err error
	if traced {
		i, id := cl.log.begin(op, 0, "core.Write")
		var res core.WriteResult
		res, err = cl.b.WriteDetailed(ctx, cl.buf[:n], off)
		cl.log.end(i)
		v = res.Version
		// The phases core reports, laid on the op's timeline: push and
		// assign start together, store and commit end it.
		s := cl.log.spans[i]
		commit0 := s.End - int64(res.CommitTime)
		cl.log.add(op, id, "provider.push", s.Start, res.DataTime)
		cl.log.add(op, id, "vmanager.assign", s.Start, res.AssignTime)
		cl.log.add(op, id, "mstore.store", commit0-int64(res.MetaTime), res.MetaTime)
		cl.log.add(op, id, "vmanager.commit", commit0, res.CommitTime)
	} else {
		v, err = cl.b.Write(ctx, cl.buf[:n], off)
	}
	if err != nil {
		return err
	}
	cl.acked = append(cl.acked, ackedWrite{v: v, seq: seq, firstPage: first, nPages: n / ps})
	return nil
}

// checkPages compares buf, read at firstPage of the model's version,
// with the model: the stamp of every page, and every byte when full.
func checkPages(buf []byte, firstPage uint64, model []uint64, seed, pageSize uint64, full bool, scratch []byte) error {
	for p := uint64(0); p < uint64(len(buf))/pageSize; p++ {
		got := buf[p*pageSize : (p+1)*pageSize]
		seq := model[firstPage+p]
		if !full {
			got = got[:stampLen]
		}
		want := scratch[:len(got)]
		if seq == 0 {
			clear(want)
		} else if full {
			fillPage(want, seed, seq, firstPage+p)
		} else {
			binary.LittleEndian.PutUint64(want[0:], seed)
			binary.LittleEndian.PutUint64(want[8:], seq)
			binary.LittleEndian.PutUint64(want[16:], firstPage+p)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("page %d: wrong bytes (want write seq %#x)", firstPage+p, seq)
		}
	}
	return nil
}

// readAt reads the workload's op at off and verifies it.
func (cl *client) readAt(ctx context.Context, r *run, off uint64, traced bool, op uint64) error {
	buf := cl.buf[:r.w.opBytes]
	var err error
	switch {
	case r.w.op == opRead && traced:
		i, id := cl.log.begin(op, 0, "core.Read")
		var res core.ReadResult
		res, err = cl.b.ReadDetailed(ctx, buf, off, r.readV)
		cl.log.end(i)
		// Read is ReadDetailed; its phases run version step, plan,
		// fetch, so the two it reports end the op's timeline.
		s := cl.log.spans[i]
		fetch0 := s.End - int64(res.DataTime)
		cl.log.add(op, id, "mstore.readplan", fetch0-int64(res.MetaTime), res.MetaTime)
		cl.log.add(op, id, "provider.getpages", fetch0, res.DataTime)
	case r.w.op == opRead:
		_, err = cl.b.Read(ctx, buf, off, r.readV)
	case traced:
		i, _ := cl.log.begin(op, 0, "core.ReadPinned")
		err = cl.b.ReadPinned(ctx, buf, off, r.readV)
		cl.log.end(i)
	default:
		err = cl.b.ReadPinned(ctx, buf, off, r.readV)
	}
	if err != nil {
		return err
	}
	full := cl.ops%fullCompareEvery == 0
	return checkPages(buf, off/r.w.pageSize, r.model, r.seed, r.w.pageSize, full, cl.scratch)
}

// loop is one client's load loop over step si: closed when rate is 0,
// otherwise one op every 1/rate seconds timed from its due time. It
// returns once stop is set and the op in flight has completed.
func (cl *client) loop(ctx context.Context, r *run, kind opKind, rate float64, si int, stop *atomic.Bool) {
	w, st := r.w, &r.steps[si]
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	opPages := w.opBytes / w.pageSize
	for i := 0; ; i++ {
		due := st.start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if stop.Load() {
			return
		}
		cl.ops++
		opID := uint64(cl.idx+1)<<40 | cl.ops
		var off uint64
		begin := time.Now()
		var err error
		if kind == opWrite {
			// Segment-aligned, so two clients' writes overlap whole ops.
			off = cl.rng.Uint64N(w.blobBytes/w.opBytes) * w.opBytes
			err = cl.writeAt(ctx, r, off, w.opBytes, st.traced, opID)
		} else {
			off = cl.rng.Uint64N(w.blobBytes/w.pageSize-opPages+1) * w.pageSize
			err = cl.readAt(ctx, r, off, st.traced, opID)
		}
		end := time.Now()
		cl.attempted++
		if err != nil {
			cl.fail(err)
			if ctx.Err() != nil {
				return
			}
			continue
		}
		s := sample{done: end, lat: end.Sub(begin), write: kind == opWrite}
		if interval > 0 {
			s.lat, s.late = end.Sub(due), begin.Sub(due)
		}
		cl.samples[si] = append(cl.samples[si], s)
		if st.traced && kind != opWrite && cl.ops%replayEvery == 0 {
			if err := cl.replayRead(ctx, r, opID, off); err != nil {
				cl.attempted++
				cl.fail(fmt.Errorf("replay: %w", err))
			}
		}
	}
}

// drive runs r.steps in order, reading the counters between them while
// no op is in flight. full selects the per-layer counters (traced runs);
// end-to-end runs read only CPU time.
func (r *run) drive(ctx context.Context, full bool) error {
	for _, cl := range r.clients {
		cl.samples = make([][]sample, len(r.steps))
	}
	open, err := r.snapshot(ctx, full)
	if err != nil {
		return err
	}
	for i := range r.steps {
		st := &r.steps[i]
		st.open, st.ticks = open, []*snapshot{open}
		if err := r.runStep(ctx, i); err != nil {
			return err
		}
		if open, err = r.snapshot(ctx, full); err != nil {
			return err
		}
		st.close = open
		st.ticks = append(st.ticks, open)
	}
	return nil
}

// runStep starts the load loops, samples CPU time every slice for the
// step's length, then stops the loops and waits for the ops in flight.
func (r *run) runStep(ctx context.Context, si int) error {
	st := &r.steps[si]
	var stop atomic.Bool
	var wg sync.WaitGroup
	st.start = time.Now()
	for _, cl := range r.clients {
		kind, rate := r.w.op, 0.0
		if r.w.open() {
			rate = r.w.readRate
			if cl.idx == 1 {
				kind, rate = opWrite, r.w.writeRate
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.loop(ctx, r, kind, rate, si, &stop)
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
		st.end = time.Now()
	}()
	for until := st.start.Add(st.dur); ; {
		left := time.Until(until)
		if left <= 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(min(left, slice)):
		}
		// A remainder shorter than half a slice joins the slice before it.
		if time.Until(until) > slice/2 {
			s, err := r.snapshot(ctx, false)
			if err != nil {
				return err
			}
			st.ticks = append(st.ticks, s)
		}
	}
}

// modelAt replays every acked write in version order and returns the
// page -> seq map of the newest version, which it also returns. Two
// acks carrying one version number break the version manager's total
// order and are reported.
func (r *run) modelAt() ([]uint64, meta.Version, error) {
	var all []ackedWrite
	for _, cl := range r.clients {
		all = append(all, cl.acked...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	model := make([]uint64, r.w.blobBytes/r.w.pageSize)
	var last meta.Version
	for i, a := range all {
		if i > 0 && a.v == last {
			return nil, 0, fmt.Errorf("version %d acknowledged to two writes", a.v)
		}
		last = a.v
		for p := a.firstPage; p < a.firstPage+a.nPages; p++ {
			model[p] = a.seq
		}
	}
	return model, last, nil
}

// pin freezes the version the reads address and the model they are
// checked against, and warms each client's metadata cache with one
// whole-blob plan (a no-op for clients whose cache cannot hold it).
func (r *run) pin(ctx context.Context) error {
	model, v, err := r.modelAt()
	if err != nil {
		return err
	}
	latest, _, err := r.clients[0].b.Latest(ctx)
	if err != nil {
		return err
	}
	if latest != v {
		return fmt.Errorf("latest published version %d, newest acked %d", latest, v)
	}
	r.model, r.readV = model, v
	if r.w.opts.CacheNodes < 0 {
		for _, cl := range r.clients {
			if _, err := cl.b.ReadMeta(ctx, 0, r.w.blobBytes, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// eachClient runs f on every client concurrently and joins the errors.
func (r *run) eachClient(f func(cl *client) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(cl)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// preloadSequential fills the blob's head with 4 MiB writes,
// alternating between the clients.
func preloadSequential(ctx context.Context, r *run) error {
	const chunk = 4 * mib
	return r.eachClient(func(cl *client) error {
		for off := uint64(cl.idx) * chunk; off < r.w.preloadBytes; off += numClients * chunk {
			if err := cl.writeAt(ctx, r, off, chunk, false, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// preloadFinegrain builds the deep, patched tree: 256 KiB base writes
// covering the blob, then random single-page overwrites (one per 8
// pages) so leaves of many versions interleave.
func preloadFinegrain(ctx context.Context, r *run) error {
	const chunk = 256 * kib
	w := r.w
	err := r.eachClient(func(cl *client) error {
		for off := uint64(cl.idx) * chunk; off < w.preloadBytes; off += numClients * chunk {
			if err := cl.writeAt(ctx, r, off, chunk, false, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pages := w.blobBytes / w.pageSize
	return r.eachClient(func(cl *client) error {
		for i := uint64(0); i < pages/8/numClients; i++ {
			if err := cl.writeAt(ctx, r, cl.rng.Uint64N(pages)*w.pageSize, w.pageSize, false, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// verifyWrites replays the acked writes into a model of the newest
// version and reads back one op-sized segment in verifySampleOf,
// comparing every byte. It returns reads attempted and reads failed.
func (r *run) verifyWrites(ctx context.Context) (attempted, failed int64, err error) {
	model, v, err := r.modelAt()
	if err != nil {
		return 0, 1, err
	}
	if v == 0 {
		return 0, 0, nil
	}
	// Hedging off: a healthy rs(k,m) read that hedges can lose pages
	// (README.md "rs hedge finding"), and this pass must not flicker.
	c, err := r.topo.client(ctx, core.Options{DisableHedging: true, CacheNodes: -1})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	b, err := c.OpenBlob(ctx, r.clients[0].b.ID())
	if err != nil {
		return 0, 0, err
	}
	w := r.w
	buf := make([]byte, w.opBytes)
	scratch := make([]byte, w.pageSize)
	pick := rand.New(rand.NewPCG(r.seed, 1<<32))
	var firstErr error
	for seg := uint64(0); seg < w.blobBytes/w.opBytes; seg++ {
		if pick.Uint64N(verifySampleOf) != 0 {
			continue
		}
		attempted++
		off := seg * w.opBytes
		_, err := b.Read(ctx, buf, off, v)
		if err == nil {
			err = checkPages(buf, off/w.pageSize, model, r.seed, w.pageSize, true, scratch)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("verify segment %d: %w", seg, err)
			}
		}
	}
	return attempted, failed, firstErr
}
