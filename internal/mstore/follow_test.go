package mstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blob/internal/dht"
	"blob/internal/meta"
	"blob/internal/rpc"
)

// applyHistory writes the history through c, one version per range,
// write ids 100+version, and returns the latest version.
func applyHistory(t testing.TB, c *Client, blob, total uint64, history []meta.PageRange) meta.Version {
	t.Helper()
	ivm, _ := meta.NewIntervalVersionMap(total)
	for i, wr := range history {
		v := meta.Version(i + 1)
		writeVersion(t, c, ivm, blob, v, total, wr, 100+uint64(v))
	}
	return meta.Version(len(history))
}

// pathBlocks replays the descent of pr at version v node by node and
// returns the blocks it crosses, in the order a breadth-first walk first
// reaches them.
func pathBlocks(t testing.TB, c *Client, blob uint64, v meta.Version, total uint64, pr meta.PageRange) []meta.BlockKey {
	t.Helper()
	var order []meta.BlockKey
	seen := map[meta.BlockKey]bool{}
	frontier := []meta.NodeKey{meta.RootKey(blob, v, total)}
	for len(frontier) > 0 {
		nodes, err := c.FetchNodes(context.Background(), frontier)
		if err != nil {
			t.Fatal(err)
		}
		var next []meta.NodeKey
		for _, k := range frontier {
			if b := k.Block(); !seen[b] {
				seen[b] = true
				order = append(order, b)
			}
			n := nodes[k]
			if n.IsLeaf() {
				continue
			}
			l, r := k.Range.Children()
			if pr.Intersects(l) && n.LeftVer != meta.ZeroVersion {
				next = append(next, meta.NodeKey{Blob: blob, Version: n.LeftVer, Range: l})
			}
			if pr.Intersects(r) && n.RightVer != meta.ZeroVersion {
				next = append(next, meta.NodeKey{Blob: blob, Version: n.RightVer, Range: r})
			}
		}
		frontier = next
	}
	return order
}

func sumFollowServed(stores []*dht.Store) int64 {
	return sumStores(stores, func(s *dht.Store) int64 { return s.FollowServed.Value() })
}

// TestFollowOracle: over random patched histories on blobs of 2^4..2^14
// pages, a read plan against providers that keep descending returns
// exactly the leaves a plan against providers that serve only what is
// asked returns — cache off, cache cold and cache warm; single pages,
// ranges that straddle a region boundary, ranges of two regions and
// more, and random ones.
func TestFollowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	var served int64
	for trial := 0; trial < 12; trial++ {
		total := uint64(1) << (4 + rng.Intn(11))
		if trial == 0 {
			total = 1 << 14
		}
		const blob = 6
		history := randomWrites(rng, total)
		for i := rng.Intn(40); i > 0; i-- { // then patches, so paths change version mid-band
			history = append(history, meta.PageRange{First: uint64(rng.Intn(int(total))), Count: 1})
		}
		plain, following := startFabric(t, 3, nil), startFabric(t, 3, FollowBlock)
		ref := New(plain.kv, 0)
		latest := applyHistory(t, ref, blob, total, history)
		applyHistory(t, New(following.kv, 0), blob, total, history)
		readers := map[string]*Client{
			"cache off": New(following.kv, 0),
			"cache on":  New(following.kv, 1<<16),
		}

		ranges := []meta.PageRange{
			{First: uint64(rng.Intn(int(total))), Count: 1},
			{First: history[len(history)-1].First, Count: 1},
		}
		if total > meta.RegionPages {
			edge := meta.RegionPages * (1 + uint64(rng.Intn(int(total/meta.RegionPages-1))))
			before, after := 1+uint64(rng.Intn(40)), 1+uint64(rng.Intn(40))
			ranges = append(ranges, meta.PageRange{First: edge - before, Count: before + after})
		}
		if total >= 4*meta.RegionPages {
			first := uint64(rng.Intn(int(total - 3*meta.RegionPages)))
			ranges = append(ranges, meta.PageRange{First: first, Count: 2*meta.RegionPages + uint64(rng.Intn(meta.RegionPages))})
		}
		for i := 0; i < 4; i++ {
			first := uint64(rng.Intn(int(total)))
			ranges = append(ranges, meta.PageRange{First: first, Count: 1 + uint64(rng.Intn(int(min(total-first, 700))))})
		}
		for _, v := range []meta.Version{latest, meta.Version(1 + rng.Intn(int(latest)))} {
			for _, pr := range ranges {
				want, err := ref.ReadPlan(ctx, blob, v, total, pr)
				if err != nil {
					t.Fatalf("trial %d: reference plan v%d %v: %v", trial, v, pr, err)
				}
				for name, c := range readers {
					for pass := 0; pass < 2; pass++ { // the second pass finds the cache warm
						got, err := c.ReadPlan(ctx, blob, v, total, pr)
						if err != nil {
							t.Fatalf("trial %d (%d pages), %s, pass %d: plan v%d %v: %v", trial, total, name, pass, v, pr, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d (%d pages), %s, pass %d: plan v%d %v differs from the reference", trial, total, name, pass, v, pr)
						}
					}
				}
			}
		}
		served += sumFollowServed(following.stores)
		if n := sumFollowServed(plain.stores); n != 0 {
			t.Fatalf("trial %d: stores without the hook served %d extras", trial, n)
		}
	}
	if served == 0 {
		t.Fatal("the following providers never served an extra: the oracle compared nothing")
	}
}

// tamper sits between a reader and a fabric's providers: every MMultiGet
// response passes through mutate before the reader sees it.
type tamper struct {
	mu     sync.Mutex
	mutate func(resp []byte) []byte
}

func (tm *tamper) set(f func([]byte) []byte) {
	tm.mu.Lock()
	tm.mutate = f
	tm.mu.Unlock()
}

// behind returns a dht client whose ring places keys as f's does (same
// node ids) but reaches each provider through a tampering proxy.
func (tm *tamper) behind(t testing.TB, f *fabric, tag string) *dht.Client {
	t.Helper()
	nodes := make([]dht.NodeInfo, len(f.nodes))
	for i, real := range f.nodes {
		real := real
		srv := rpc.NewServer()
		srv.Handle(dht.MMultiGet, func(ctx context.Context, body []byte) ([]byte, error) {
			resp, err := f.pool.Call(ctx, real.Addr, dht.MMultiGet, bytes.Clone(body))
			if err != nil {
				return nil, err
			}
			tm.mu.Lock()
			defer tm.mu.Unlock()
			if tm.mutate == nil {
				return bytes.Clone(resp), nil
			}
			return tm.mutate(bytes.Clone(resp)), nil
		})
		host := fmt.Sprintf("%s%d", tag, i)
		l, err := f.net.Host(host).Listen("rpc")
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(l)
		t.Cleanup(srv.Close)
		nodes[i] = dht.NodeInfo{ID: real.ID, Addr: host + ":rpc"}
	}
	return dht.NewClient(f.pool, dht.NewRing(nodes), 1)
}

// forgeExtra inserts one extra (key, body) into an MMultiGet response,
// ahead of the honest extras — the first value under a key is the one
// the client keeps. The response is the key count, a found flag (and
// value) per key, then the extras.
func forgeExtra(resp []byte, key uint64, body []byte) []byte {
	n, off := binary.Uvarint(resp)
	for ; n > 0; n-- {
		off++
		if resp[off-1] != 0 {
			size, w := binary.Uvarint(resp[off:])
			off += w + int(size)
		}
	}
	out := append(bytes.Clone(resp[:off]), 1)
	out = binary.LittleEndian.AppendUint64(out, key)
	out = binary.AppendUvarint(out, uint64(len(body)))
	return append(append(out, body...), resp[off:]...)
}

// storedBody finds a block's stored bytes on whichever provider has it.
func storedBody(t testing.TB, stores []*dht.Store, b meta.BlockKey) []byte {
	t.Helper()
	for _, st := range stores {
		if v, ok := st.Get(b.Hash()); ok {
			return bytes.Clone(v)
		}
	}
	t.Fatalf("no provider holds block %+v", b)
	return nil
}

// TestFollowIsAdvisory pins the contract of what providers send ahead:
// whatever they put there — nothing (TestFollowOracle's reference),
// another block's body under a key the walk will derive, a valid block
// under a key it never derives, a response cut short, any single bit of
// an extra flipped — the read returns the leaves it returns without
// extras, or a decode error; never other leaves. For a flipped bit that
// DecodeBlock cannot see (the stored form carries no checksum of its
// own: a flipped payload bit is a different valid block), "no other
// leaves" means the same outcome as when that body arrives as a
// requested value: extras are held to exactly what requested blocks are.
func TestFollowIsAdvisory(t *testing.T) {
	const (
		blob  = 3
		total = 1 << 10
		page  = 300
	)
	rng := rand.New(rand.NewSource(5))
	history := []meta.PageRange{{First: 0, Count: total}}
	for i := 0; i < 60; i++ {
		history = append(history, meta.PageRange{First: 256 + uint64(rng.Intn(256)), Count: 1})
	}
	history = append(history, meta.PageRange{First: page, Count: 1}, meta.PageRange{First: page + 7, Count: 1})

	plain, following := startFabric(t, 3, nil), startFabric(t, 3, FollowBlock)
	latest := applyHistory(t, New(plain.kv, 0), blob, total, history)
	applyHistory(t, New(following.kv, 0), blob, total, history)
	var tm tamper
	asked := New(tm.behind(t, plain, "evilplain"), 0)      // every block arrives because it was asked for
	ahead := New(tm.behind(t, following, "evilfollow"), 0) // most arrive ahead of being asked
	ctx := context.Background()
	pr := meta.PageRange{First: page, Count: 1}
	plan := func(c *Client) ([]PageLeaf, error) { return c.ReadPlan(ctx, blob, latest, total, pr) }

	want, err := plan(asked)
	if err != nil || want[0].Leaf.Write != 100+uint64(latest)-1 {
		t.Fatalf("untampered reference: %+v, %v", want, err)
	}
	path := pathBlocks(t, New(plain.kv, 0), blob, latest, total, pr)
	last, other := path[len(path)-1], path[len(path)-2]
	if len(path) < 4 || last.Range.Size > meta.RegionPages || other.Range.Size > meta.RegionPages {
		t.Fatalf("test bug: path %+v should end in several in-region blocks", path)
	}
	before := sumFollowServed(following.stores)
	if got, err := plan(ahead); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("untampered following read: %+v, %v", got, err)
	}
	if sumFollowServed(following.stores) == before {
		t.Fatal("test bug: the following read was served no extra")
	}

	t.Run("another block under a key the walk derives", func(t *testing.T) {
		wrong := storedBody(t, following.stores, other)
		tm.set(func(resp []byte) []byte { return forgeExtra(resp, last.Hash(), wrong) })
		defer tm.set(nil)
		// The walk reaches the key, finds the forged body waiting and
		// must refuse it — loudly, not by quietly fetching the real one.
		if got, err := plan(ahead); err == nil || !strings.Contains(err.Error(), "block key mismatch") {
			t.Fatalf("plan = %+v, err = %v; want the decoder's key mismatch", got, err)
		}
	})

	t.Run("a valid block under a key the walk never derives", func(t *testing.T) {
		tm.set(func(resp []byte) []byte { return forgeExtra(resp, 0xdecaf, storedBody(t, following.stores, last)) })
		defer tm.set(nil)
		if got, err := plan(ahead); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("an unreachable extra changed the read: %+v, %v", got, err)
		}
	})

	t.Run("truncated response", func(t *testing.T) {
		defer tm.set(nil)
		for _, cut := range []int{1, 2, 9, 30} {
			tm.set(func(resp []byte) []byte { return resp[:max(len(resp)-cut, 0)] })
			if got, err := plan(ahead); err == nil {
				t.Fatalf("response cut by %d bytes accepted: %+v", cut, got)
			}
		}
	})

	t.Run("bit-flipped extra", func(t *testing.T) {
		defer tm.set(nil)
		body := storedBody(t, following.stores, last)
		errs, same := 0, 0
		for bit := 0; bit < len(body)*8; bit++ {
			flipped := bytes.Clone(body)
			flipped[bit/8] ^= 1 << (bit % 8)
			tm.set(func(resp []byte) []byte { return bytes.Replace(resp, body, flipped, 1) })
			got, err := plan(ahead)
			ref, refErr := plan(asked)
			switch {
			case (err == nil) != (refErr == nil):
				t.Fatalf("bit %d: sent ahead err = %v, asked for err = %v", bit, err, refErr)
			case err != nil:
				errs++
			case !reflect.DeepEqual(got, ref):
				t.Fatalf("bit %d: the flipped block read differently sent ahead (%+v) than asked for (%+v)", bit, got, ref)
			case reflect.DeepEqual(got, want):
				same++
			}
		}
		// The block key leads the body: a flip there can never pass.
		if errs < 8*10 || same == 0 {
			t.Fatalf("%d of %d flips refused, %d harmless: want at least the key's bits refused and some harmless", errs, len(body)*8, same)
		}
	})
}

// TestRegionPlacement: the dispersal unit of the metadata DHT is the
// region. All blocks of all versions inside one region share a primary
// (a region whose 2^44-key span holds a ring point splits in two: at
// most 2 primaries ever, exactly 1 for at least 99 % of regions); the
// regions of one blob spread over every node; blocks above the regions
// still disperse by version.
func TestRegionPlacement(t *testing.T) {
	nodes := make([]dht.NodeInfo, 5)
	for i := range nodes {
		nodes[i] = dht.NodeInfo{ID: uint64(i + 1), Addr: fmt.Sprintf("m%d:rpc", i)}
	}
	ring := dht.NewRing(nodes)
	primary := func(b meta.BlockKey) uint64 {
		n, _ := ring.Primary(b.Hash())
		return n.ID
	}
	// Every block range inside region r: 1 + 8 + 64 of them.
	inRegion := func(r uint64) []meta.NodeRange {
		var out []meta.NodeRange
		for size := uint64(meta.RegionPages); size >= 1<<(meta.BlockLevels-1); size >>= meta.BlockLevels {
			for start := r * meta.RegionPages; start < (r+1)*meta.RegionPages; start += size {
				out = append(out, meta.NodeRange{Start: start, Size: size})
			}
		}
		return out
	}
	if n := len(inRegion(3)); n != 73 {
		t.Fatalf("test bug: %d block ranges in a region, want 73", n)
	}

	const regions = 4096 // a 2^20-page blob
	split := 0
	for r := uint64(0); r < regions; r++ {
		prims := map[uint64]bool{}
		for _, v := range []meta.Version{1, 77, 1 << 33} {
			for _, rg := range inRegion(r) {
				b := meta.BlockKey{Blob: 9, Version: v, Range: rg}
				if b != (meta.NodeKey{Blob: 9, Version: v, Range: rg}).Block() {
					t.Fatalf("test bug: %v is not a block name", rg)
				}
				prims[primary(b)] = true
			}
		}
		if len(prims) > 2 {
			t.Fatalf("region %d is spread over %d primaries", r, len(prims))
		}
		if len(prims) == 2 {
			split++
		}
	}
	if split*100 > regions {
		t.Errorf("%d of %d regions split over two primaries, want at most 1 %%", split, regions)
	}

	hosts := map[uint64]int{}
	for r := uint64(0); r < 1<<14/meta.RegionPages; r++ {
		hosts[primary(meta.BlockKey{Blob: 9, Version: 1, Range: meta.NodeRange{Start: r * meta.RegionPages, Size: meta.RegionPages}})]++
	}
	if len(hosts) != len(nodes) {
		t.Errorf("the 64 regions of a 2^14-page blob land on %d of %d nodes: %v", len(hosts), len(nodes), hosts)
	}

	above := map[uint64]bool{}
	for v := meta.Version(1); v <= 64; v++ {
		above[primary(meta.BlockKey{Blob: 9, Version: v, Range: meta.NodeRange{Start: 0, Size: meta.RegionPages << meta.BlockLevels}})] = true
	}
	if len(above) != len(nodes) {
		t.Errorf("one above-region block of 64 versions lands on %d of %d nodes", len(above), len(nodes))
	}

	// A blob smaller than a region is one region: its every block, the
	// top band's clamped name included, on one node.
	small := map[uint64]bool{}
	for v := meta.Version(1); v <= 64; v++ {
		for _, r := range meta.WriteSet(16, meta.PageRange{First: 0, Count: 16}) {
			small[primary(meta.NodeKey{Blob: 9, Version: v, Range: r}.Block())] = true
		}
	}
	if len(small) != 1 {
		t.Errorf("a 16-page blob's blocks land on %d nodes", len(small))
	}
}

// TestFollowTrips: cache off, one page of a 2^14-page patched tree. The
// descent sends one call per run of consecutive path blocks that share a
// primary — so never more than one per block above the regions plus one,
// and the whole in-region remainder of the path, whatever its changes of
// version, costs a single call.
func TestFollowTrips(t *testing.T) {
	const (
		blob  = 1
		total = 1 << 14
	)
	rng := rand.New(rand.NewSource(3))
	history := []meta.PageRange{{First: 0, Count: total}}
	for i := 0; i < 400; i++ {
		history = append(history, meta.PageRange{First: uint64(rng.Intn(total)), Count: 1})
	}
	f := startFabric(t, 3, FollowBlock)
	c := New(f.kv, 0)
	latest := applyHistory(t, c, blob, total, history)
	ring := f.kv.Ring()
	ctx := context.Background()
	deepest := 0
	for trial := 0; trial < 60; trial++ {
		pr := meta.PageRange{First: history[1+rng.Intn(400)].First, Count: 1}
		path := pathBlocks(t, c, blob, latest, total, pr)
		above, runs, tailRuns := 0, 0, 0
		var prev uint64
		for _, b := range path {
			prim, _ := ring.Primary(b.Hash())
			if prim.ID != prev {
				runs++
				if b.Range.Size <= meta.RegionPages {
					tailRuns++
				}
			}
			prev = prim.ID
			if b.Range.Size > meta.RegionPages {
				above++
			}
		}
		deepest = max(deepest, len(path)-above)
		if tailRuns > 1 {
			t.Fatalf("page %d: the in-region blocks of the path sit on %d primaries", pr.First, tailRuns)
		}
		before := rpc.M.CallsSent.Value()
		if _, err := c.ReadPlan(ctx, blob, latest, total, pr); err != nil {
			t.Fatal(err)
		}
		calls := int(rpc.M.CallsSent.Value() - before)
		if calls != runs || calls > above+1 {
			t.Fatalf("page %d: %d calls for a path of %d blocks (%d above the regions, %d runs of one primary)",
				pr.First, calls, len(path), above, runs)
		}
	}
	if deepest < 5 {
		t.Fatalf("test bug: no sampled path changes version inside its region (deepest in-region tail: %d blocks)", deepest)
	}

	// What was sent ahead and then reached is reported to the providers
	// with the next fetch, so served against used reads off their counters.
	told := sumStores(f.stores, func(s *dht.Store) int64 { return s.FollowUsed.Value() })
	if served := sumFollowServed(f.stores); told == 0 || told > served {
		t.Errorf("providers served %d extras and were told of %d used", served, told)
	}
}

// TestFollowCapStillResolves: a 256-page read over a region patched page
// by page needs more blocks than one response may carry. The providers
// hit the cap, the reader asks again for what it lacks, and every page
// resolves to its own patch.
func TestFollowCapStillResolves(t *testing.T) {
	const (
		blob   = 4
		total  = 1 << 10
		region = 2
	)
	history := []meta.PageRange{{First: 0, Count: total}}
	patch := map[uint64]uint64{} // page → write id
	for _, i := range rand.New(rand.NewSource(11)).Perm(meta.RegionPages) {
		page := uint64(region*meta.RegionPages + i)
		history = append(history, meta.PageRange{First: page, Count: 1})
		patch[page] = 100 + uint64(len(history))
	}
	f := startFabric(t, 3, FollowBlock)
	c := New(f.kv, 0)
	latest := applyHistory(t, c, blob, total, history)
	pr := meta.PageRange{First: region * meta.RegionPages, Count: meta.RegionPages}
	crossed := len(pathBlocks(t, c, blob, latest, total, pr))
	if crossed <= dht.MaxFollowBlocks {
		t.Fatalf("test bug: the read crosses %d blocks, not more than the cap of %d", crossed, dht.MaxFollowBlocks)
	}
	before := rpc.M.CallsSent.Value()
	leaves, err := c.ReadPlan(context.Background(), blob, latest, total, pr)
	calls := rpc.M.CallsSent.Value() - before
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaves {
		if l.Leaf.Write != patch[l.Page] {
			t.Fatalf("page %d resolved to write %d, want its patch %d", l.Page, l.Leaf.Write, patch[l.Page])
		}
	}
	hits := sumStores(f.stores, func(s *dht.Store) int64 { return s.FollowCapHits.Value() })
	if hits == 0 {
		t.Error("no provider reported a cap hit")
	}
	t.Logf("%d blocks in %d calls, %d cap hits", crossed, calls, hits)
	// Capped following still beats providers that serve only what is asked.
	plain := startFabric(t, 3, nil)
	pc := New(plain.kv, 0)
	applyHistory(t, pc, blob, total, history)
	before = rpc.M.CallsSent.Value()
	if _, err := pc.ReadPlan(context.Background(), blob, latest, total, pr); err != nil {
		t.Fatal(err)
	}
	if asked := rpc.M.CallsSent.Value() - before; calls >= asked {
		t.Errorf("%d calls with following, %d without", calls, asked)
	}
}
