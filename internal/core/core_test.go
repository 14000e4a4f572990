package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/dht"
	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/rpc"
)

const pageSize = 4 << 10 // small pages keep tests fast

// poisonByte overwrites every pooled rpc buffer on release while a test
// deployment runs (rpc.PoisonOnRelease).
const poisonByte = 0xEE

// launch starts a deployment and connects one client to it, its options
// passed through each adjust first. Outside benchmarks, pooled rpc
// buffers are poisoned on release until the test's cleanup ends: a
// reply or body read after its buffer went back to the pool reads
// poison and fails its checksum or decode loudly.
func launch(t testing.TB, cfg cluster.Config, adjust ...func(*core.Options)) (*cluster.Cluster, *core.Client) {
	t.Helper()
	if _, bench := t.(*testing.B); !bench {
		t.Cleanup(rpc.PoisonOnRelease(poisonByte)) // registered first, so restored last
	}
	cl, err := cluster.Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Shutdown)
	opts := cl.ClientOptions("client")
	for _, f := range adjust {
		f(&opts)
	}
	c, err := core.NewClient(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return cl, c
}

// unhedged turns a client's hedged reads off.
func unhedged(o *core.Options) { o.DisableHedging = true }

func pattern(seed byte, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = seed + byte(i*7)
	}
	return buf
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}

	data := pattern(3, 4*pageSize)
	v, err := b.Write(ctx, data, 8*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("version = %d, want 1", v)
	}

	got := make([]byte, 4*pageSize)
	latest, err := b.Read(ctx, got, 8*pageSize, v)
	if err != nil {
		t.Fatal(err)
	}
	if latest != 1 {
		t.Errorf("latest = %d, want 1", latest)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned different bytes than written")
	}
}

func TestZeroFillSemantics(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)

	// Version 0 is the all-zero string (readable without any write).
	got := pattern(9, 2*pageSize)
	if _, err := b.Read(ctx, got, 4*pageSize, meta.ZeroVersion); err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 0 {
			t.Fatalf("version-0 byte %d = %d, want 0", i, x)
		}
	}

	// After writing pages [4,6), surrounding pages still read zero.
	data := pattern(5, 2*pageSize)
	v, err := b.Write(ctx, data, 4*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	wide := make([]byte, 6*pageSize)
	if _, err := b.Read(ctx, wide, 2*pageSize, v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*pageSize; i++ {
		if wide[i] != 0 {
			t.Fatalf("pre-gap byte %d nonzero", i)
		}
	}
	if !bytes.Equal(wide[2*pageSize:4*pageSize], data) {
		t.Error("written region mismatch")
	}
	for i := 4 * pageSize; i < 6*pageSize; i++ {
		if wide[i] != 0 {
			t.Fatalf("post-gap byte %d nonzero", i)
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)

	d1 := pattern(1, 2*pageSize)
	d2 := pattern(2, 2*pageSize)
	v1, err := b.Write(ctx, d1, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := b.Write(ctx, d2, 0)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]byte, 2*pageSize)
	if _, err := b.Read(ctx, got, 0, v1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d1) {
		t.Error("v1 snapshot changed after v2 write")
	}
	if _, err := b.Read(ctx, got, 0, v2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d2) {
		t.Error("v2 snapshot wrong")
	}
}

func TestPartialOverwriteComposition(t *testing.T) {
	_, c := launch(t, cluster.Config{DataProviders: 3, MetaProviders: 3})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)

	base := pattern(10, 8*pageSize)
	if _, err := b.Write(ctx, base, 0); err != nil {
		t.Fatal(err)
	}
	patch := pattern(99, 2*pageSize)
	v2, err := b.Write(ctx, patch, 3*pageSize)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]byte, 8*pageSize)
	if _, err := b.Read(ctx, got, 0, v2); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), base...)
	copy(want[3*pageSize:], patch)
	if !bytes.Equal(got, want) {
		t.Fatal("v2 is not base+patch composition")
	}
}

func TestReadUnpublishedFails(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	got := make([]byte, pageSize)
	if _, err := b.Read(ctx, got, 0, 3); !errors.Is(err, core.ErrNotPublished) {
		t.Errorf("err = %v, want ErrNotPublished", err)
	}
}

func TestAlignmentValidation(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if _, err := b.Write(ctx, make([]byte, 100), 0); err == nil {
		t.Error("unaligned write length accepted")
	}
	if _, err := b.Write(ctx, make([]byte, pageSize), 33); err == nil {
		t.Error("unaligned write offset accepted")
	}
	if _, err := b.Read(ctx, make([]byte, 100), 0, 0); err == nil {
		t.Error("unaligned read length accepted")
	}
	if _, err := b.Write(ctx, make([]byte, pageSize), 16*pageSize); err == nil {
		t.Error("write beyond capacity accepted")
	}
}

func TestAppendSequence(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)

	var want []byte
	for i := 0; i < 5; i++ {
		chunk := pattern(byte(i+1), pageSize)
		_, off, err := b.Append(ctx, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if off != uint64(i)*pageSize {
			t.Errorf("append %d landed at %d, want %d", i, off, i*pageSize)
		}
		want = append(want, chunk...)
	}
	v, size, err := b.Latest(ctx)
	if err != nil || size != 5*pageSize {
		t.Fatalf("latest = v%d size %d err %v", v, size, err)
	}
	got := make([]byte, 5*pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("appended content mismatch")
	}
}

func TestConcurrentAppendsNeverOverlap(t *testing.T) {
	_, c := launch(t, cluster.Config{DataProviders: 4, MetaProviders: 4})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 256*pageSize)

	const appenders = 8
	offsets := make([]uint64, appenders)
	var wg sync.WaitGroup
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chunk := pattern(byte(i), pageSize)
			_, off, err := b.Append(ctx, chunk)
			if err != nil {
				t.Error(err)
				return
			}
			offsets[i] = off
		}(i)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, off := range offsets {
		if seen[off] {
			t.Fatalf("two appends landed at offset %d", off)
		}
		seen[off] = true
	}
	_, size, _ := b.Latest(ctx)
	if size != appenders*pageSize {
		t.Errorf("final size = %d, want %d", size, appenders*pageSize)
	}
}

func TestConcurrentWritersGlobalSerializability(t *testing.T) {
	// W writers patch overlapping ranges concurrently. Afterwards, every
	// published version must equal the successive application of patches
	// 1..v — verified by replaying the version manager's history.
	cl, c := launch(t, cluster.Config{DataProviders: 4, MetaProviders: 4})
	ctx := context.Background()
	const totalPages = 16
	b, err := c.CreateBlob(ctx, pageSize, totalPages*pageSize)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 10
	patches := make([][]byte, writers+1)
	versionOf := make([]meta.Version, writers+1)
	offsets := make([]uint64, writers+1)
	var wg sync.WaitGroup
	for i := 1; i <= writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wcli, err := cl.NewClient(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			defer wcli.Close()
			wb, err := wcli.OpenBlob(ctx, b.ID())
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(i)))
			np := rng.Intn(4) + 1
			off := uint64(rng.Intn(totalPages-np)) * pageSize
			data := pattern(byte(i*17), np*pageSize)
			v, err := wb.Write(ctx, data, off)
			if err != nil {
				t.Error(err)
				return
			}
			patches[i] = data
			versionOf[i] = v
			offsets[i] = off
		}(i)
	}
	wg.Wait()

	// Replay: apply patches in version order onto a flat model.
	byVersion := make(map[meta.Version]int)
	for i := 1; i <= writers; i++ {
		byVersion[versionOf[i]] = i
	}
	flat := make([]byte, totalPages*pageSize)
	for v := meta.Version(1); v <= writers; v++ {
		i, ok := byVersion[v]
		if !ok {
			t.Fatalf("no writer got version %d", v)
		}
		copy(flat[offsets[i]:], patches[i])
		got := make([]byte, totalPages*pageSize)
		if _, err := b.Read(ctx, got, 0, v); err != nil {
			t.Fatalf("read v%d: %v", v, err)
		}
		if !bytes.Equal(got, flat) {
			t.Fatalf("v%d does not equal successive application of patches 1..%d", v, v)
		}
	}
}

func TestReadersConcurrentWithWriters(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 4, MetaProviders: 4})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)

	seed := pattern(1, 8*pageSize)
	if _, err := b.Write(ctx, seed, 0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writer keeps producing versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.Write(ctx, pattern(byte(i), 2*pageSize), uint64(i%4)*2*pageSize); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Readers continuously read the latest version; every read must be
	// internally consistent (a snapshot, not a torn mix).
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rcli, err := cl.NewClient(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			defer rcli.Close()
			rb, err := rcli.OpenBlob(ctx, b.ID())
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 2*pageSize)
			for i := 0; i < 30; i++ {
				latest, _, err := rb.Latest(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := rb.Read(ctx, buf, 0, latest); err != nil {
					t.Errorf("read v%d: %v", latest, err)
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestReplicatedReadSurvivesProviderCrash(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 4, MetaProviders: 4, Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 32*pageSize)
	data := pattern(7, 8*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Crash one data provider node.
	cl.DataServers[0].Close()

	got := make([]byte, 8*pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatalf("read after provider crash: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted after failover")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	data := pattern(8, pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the page on every provider that holds it: read must fail
	// rather than return bad bytes.
	corrupted := 0
	for _, st := range cl.DataStores {
		st.ForEachPage(func(_, _ uint64, _ uint32, data []byte) {
			data[0] ^= 0xff
			corrupted++
		})
	}
	if corrupted == 0 {
		t.Fatal("test bug: no pages corrupted")
	}
	got := make([]byte, pageSize)
	if _, err := b.Read(ctx, got, 0, v); err == nil {
		t.Fatal("read of corrupted data succeeded")
	}
}

func TestChecksumFailoverToGoodReplica(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2, Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	data := pattern(8, pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt only the FIRST provider's copy: the read must silently
	// fail over to the intact replica.
	cl.DataStores[0].ForEachPage(func(_, _ uint64, _ uint32, d []byte) {
		d[0] ^= 0xff
	})
	got := make([]byte, pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatalf("read with one corrupt replica: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover returned wrong bytes")
	}
}

func TestMetadataReplicationSurvivesMetaCrash(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 3, MetaProviders: 3, MetaReplicas: 2, CacheNodes: 0})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	data := pattern(4, 4*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl.MetaServers[1].Close()
	got := make([]byte, 4*pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatalf("read after metadata node crash: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after metadata failover")
	}
}

// TestMetadataReadRepairRestoresWipedStore: with metadata replicated
// twice, a read that finds a block gone from its primary is served by
// the secondary — and the batched fetch re-puts the block where it was
// answered "not found", so the block is back on the wiped store.
func TestMetadataReadRepairRestoresWipedStore(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 3, MetaProviders: 3, MetaReplicas: 2, CacheNodes: 0})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	data := pattern(9, 4*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The descent asks for the root's block by key. Find its primary and
	// wipe every block of the write off it.
	root := meta.RootKey(b.ID(), v, 16).Block().Hash()
	_, members := cl.Dir.Members()
	prim, ok := dht.NewRing(members).Primary(root)
	if !ok {
		t.Fatal("no metadata members")
	}
	victim := cl.MetaStores[prim.ID-1] // the directory hands out ids 1..n in registration order
	wiped := 0
	for _, r := range meta.WriteSet(16, meta.PageRange{First: 0, Count: 4}) {
		if victim.Delete(meta.NodeKey{Blob: b.ID(), Version: v, Range: r}.Block().Hash()) {
			wiped++
		}
	}
	if _, held := victim.Get(root); held || wiped == 0 {
		t.Fatalf("test bug: wiped %d blocks, root block still held: %v", wiped, held)
	}

	got := make([]byte, 4*pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatalf("read after the primary lost its metadata: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after metadata failover")
	}
	deadline := time.Now().Add(2 * time.Second)
	for { // the re-put is asynchronous
		if _, held := victim.Get(root); held {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the root block did not come back to the wiped primary")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOpenBlobFromSecondClient(t *testing.T) {
	cl, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	data := pattern(6, pageSize)
	v, _ := b.Write(ctx, data, 0)

	c2, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	b2, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if b2.PageSize() != pageSize || b2.CapacityBytes() != 16*pageSize {
		t.Errorf("opened geometry: page %d cap %d", b2.PageSize(), b2.CapacityBytes())
	}
	got := make([]byte, pageSize)
	if _, err := b2.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-client read mismatch")
	}
}

func TestOpenUnknownBlob(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	if _, err := c.OpenBlob(context.Background(), 999); err == nil {
		t.Fatal("open of unknown blob should fail")
	}
}

func TestWaitVersion(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	go func() {
		time.Sleep(20 * time.Millisecond)
		b.Write(ctx, pattern(1, pageSize), 0)
	}()
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := b.WaitVersion(wctx, 1); err != nil {
		t.Fatal(err)
	}
}

func TestReadMetaOnly(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if _, err := b.Write(ctx, pattern(2, 8*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	leaves, err := b.ReadMeta(ctx, 2*pageSize, 4*pageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 4 {
		t.Fatalf("leaves = %d, want 4", len(leaves))
	}
	for i, l := range leaves {
		if l.Page != uint64(2+i) || l.Leaf.Write == 0 {
			t.Errorf("leaf %d = %+v", i, l)
		}
	}
}

func TestWriteDetailedPhases(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	res, err := b.WriteDetailed(ctx, pattern(1, 2*pageSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 {
		t.Errorf("version = %d", res.Version)
	}
	if res.MetaTime <= 0 || res.DataTime <= 0 {
		t.Errorf("phase timings missing: %+v", res)
	}
}

func TestManyVersionsDeepHistory(t *testing.T) {
	_, c := launch(t, cluster.Config{DataProviders: 4, MetaProviders: 4})
	ctx := context.Background()
	const totalPages = 32
	b, _ := c.CreateBlob(ctx, pageSize, totalPages*pageSize)

	rng := rand.New(rand.NewSource(77))
	flat := make([]byte, totalPages*pageSize)
	snapshots := [][]byte{append([]byte(nil), flat...)}
	const versions = 30
	for i := 1; i <= versions; i++ {
		np := rng.Intn(6) + 1
		off := uint64(rng.Intn(totalPages-np)) * pageSize
		data := pattern(byte(i*31), np*pageSize)
		if _, err := b.Write(ctx, data, off); err != nil {
			t.Fatal(err)
		}
		copy(flat[off:], data)
		snapshots = append(snapshots, append([]byte(nil), flat...))
	}
	// Spot-check old versions remain intact (space-shared, not copied).
	for _, v := range []meta.Version{1, versions / 2, versions} {
		got := make([]byte, totalPages*pageSize)
		if _, err := b.Read(ctx, got, 0, v); err != nil {
			t.Fatalf("read v%d: %v", v, err)
		}
		if !bytes.Equal(got, snapshots[v]) {
			t.Fatalf("v%d snapshot mismatch", v)
		}
	}
}

func TestClientMetrics(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 16*pageSize)
	b.Write(ctx, pattern(1, pageSize), 0)
	buf := make([]byte, pageSize)
	b.Read(ctx, buf, 0, 1)
	if c.Writes.Value() != 1 || c.Reads.Value() != 1 {
		t.Errorf("metrics: writes=%d reads=%d", c.Writes.Value(), c.Reads.Value())
	}
	if c.BytesWritten.Value() != pageSize || c.BytesRead.Value() != pageSize {
		t.Errorf("metrics bytes: %d/%d", c.BytesWritten.Value(), c.BytesRead.Value())
	}
}

func TestFig2ScenarioEndToEnd(t *testing.T) {
	// The paper's Figure 2(b) walked through versions 1..3 on a 4-page
	// blob; verify the end-to-end content of each snapshot.
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, _ := c.CreateBlob(ctx, pageSize, 4*pageSize)

	v1data := pattern(1, 4*pageSize)
	v2patch := pattern(2, pageSize)
	v3patch := pattern(3, pageSize)
	if _, err := b.Write(ctx, v1data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, v2patch, 1*pageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, v3patch, 2*pageSize); err != nil {
		t.Fatal(err)
	}

	want := map[meta.Version][]byte{1: v1data}
	w2 := append([]byte(nil), v1data...)
	copy(w2[pageSize:], v2patch)
	want[2] = w2
	w3 := append([]byte(nil), w2...)
	copy(w3[2*pageSize:], v3patch)
	want[3] = w3

	for v, w := range want {
		got := make([]byte, 4*pageSize)
		if _, err := b.Read(ctx, got, 0, v); err != nil {
			t.Fatalf("read v%d: %v", v, err)
		}
		if !bytes.Equal(got, w) {
			t.Errorf("v%d content mismatch", v)
		}
	}
}
