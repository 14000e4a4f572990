package core_test

// Tests of the per-handle published watermark: a read of a version the
// handle has been told is published asks the version manager nothing, and
// nothing else about READ changes — Read(v) succeeds iff v is published,
// an unpublished v is never remembered, ReadLatest and Latest always see
// another client's acknowledged write.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/meta"
)

// trips runs f and returns how many reads of c asked the version manager
// meanwhile.
func trips(c *core.Client, f func()) int64 {
	before := c.VersionTrips.Value()
	f()
	return c.VersionTrips.Value() - before
}

// mustRead reads one page of version v at page index p and checks it.
func mustRead(t *testing.T, b *core.Blob, p uint64, v meta.Version, want []byte) meta.Version {
	t.Helper()
	got := make([]byte, len(want))
	latest, err := b.Read(context.Background(), got, p*pageSize, v)
	if err != nil {
		t.Fatalf("read v%d: %v", v, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read v%d page %d: wrong bytes", v, p)
	}
	if latest < v {
		t.Fatalf("read v%d returned latest %d", v, latest)
	}
	return latest
}

func TestReadOfOwnWriteAsksNothing(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(1, pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.PublishedWatermark(); got != v {
		t.Fatalf("watermark after Write = %d, want the version it returned, %d", got, v)
	}
	if n := trips(c, func() {
		for i := 0; i < 100; i++ {
			mustRead(t, b, 0, v, data)
		}
	}); n != 0 {
		t.Errorf("100 reads of a version the handle's own write returned made %d version-manager trips", n)
	}
	// The initial all-zero string is published by definition.
	fresh, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if n := trips(c, func() {
		if latest := mustRead(t, fresh, 3, 0, make([]byte, pageSize)); latest != 0 {
			t.Errorf("Read(0) of an unwritten blob returned latest %d", latest)
		}
		if latest := mustRead(t, b, 3, 0, make([]byte, pageSize)); latest != v {
			t.Errorf("Read(0) returned %d, want the handle's watermark %d", latest, v)
		}
	}); n != 0 {
		t.Errorf("Read(0) made %d version-manager trips", n)
	}
	// An appended version is known the same way; unaligned reads and
	// WriteAt's boundary read name a version too, and ask as little.
	va, _, err := b.Append(ctx, pattern(2, pageSize))
	if err != nil {
		t.Fatal(err)
	}
	if n := trips(c, func() {
		part := make([]byte, 100)
		if err := b.ReadAt(ctx, part, pageSize+17, va); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(part, pattern(2, pageSize)[17:117]) {
			t.Error("unaligned read of the appended version: wrong bytes")
		}
		if _, err := b.WriteAt(ctx, []byte("patch"), 5, va); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadAt + WriteAt against a known base made %d version-manager trips", n)
	}
}

func TestFreshHandleReadsPublishedWithoutAsking(t *testing.T) {
	cl, c := launch(t, cluster.Config{MetaProviders: 2})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	var pages [][]byte // pages[v-1] is what version v wrote to page v-1
	for v := 1; v <= 5; v++ {
		pages = append(pages, pattern(byte(10*v), pageSize))
		if _, err := b.Write(ctx, pages[v-1], uint64(v-1)*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	b2, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.PublishedWatermark(); got != 5 {
		t.Fatalf("watermark of a fresh handle = %d, want Info.LatestPublished = 5", got)
	}
	if n := trips(c2, func() {
		for v := meta.Version(0); v <= 5; v++ {
			for p := uint64(0); p < 5; p++ {
				want := make([]byte, pageSize) // page p is zero until version p+1
				if v > p {
					want = pages[p]
				}
				if latest := mustRead(t, b2, p, v, want); latest != 5 {
					t.Fatalf("read v%d returned latest %d, want the watermark 5", v, latest)
				}
			}
		}
	}); n != 0 {
		t.Errorf("reads of versions at or below Info.LatestPublished made %d version-manager trips", n)
	}
}

func TestUnpublishedVersionIsNeverRemembered(t *testing.T) {
	cl, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(ctx, pattern(1, pageSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pageSize)
	for i := 0; i < 5; i++ {
		if n := trips(c, func() {
			if _, err := b.Read(ctx, got, 0, v+1); !errors.Is(err, core.ErrNotPublished) {
				t.Fatalf("read of unpublished v%d: err = %v, want ErrNotPublished", v+1, err)
			}
		}); n != 1 {
			t.Fatalf("attempt %d: a read of an unpublished version made %d version-manager trips, want exactly 1 every time", i, n)
		}
		if w := b.PublishedWatermark(); w != v {
			t.Fatalf("a failed read moved the watermark to %d (published: %d)", w, v)
		}
	}

	// Another client publishes v+1: the stale handle learns of it on its
	// next read of v+1 — one trip — and never asks about it again.
	c2, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	b2, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	next := pattern(2, pageSize)
	v2, err := b2.Write(ctx, next, 0)
	if err != nil || v2 != v+1 {
		t.Fatalf("second client's write: v%d, %v", v2, err)
	}
	if n := trips(c, func() { mustRead(t, b, 0, v+1, next) }); n != 1 {
		t.Errorf("first read of a version another client published made %d trips, want 1", n)
	}
	if n := trips(c, func() {
		for i := 0; i < 20; i++ {
			mustRead(t, b, 0, v+1, next)
		}
	}); n != 0 {
		t.Errorf("later reads of it made %d trips, want 0", n)
	}
}

// TestReadLatestSeesAnotherClientsAckedWrite is the paper's immediacy: a
// write acknowledged to anyone is what the very next ReadLatest or Latest
// of everyone returns. It fails if a handle ever caches "latest".
func TestReadLatestSeesAnotherClientsAckedWrite(t *testing.T) {
	cl, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	writer, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pageSize)
	for round := 1; round <= 10; round++ {
		data := pattern(byte(round), pageSize)
		v, err := writer.Write(ctx, data, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := trips(c, func() {
			latest, err := b.ReadLatest(ctx, got, 0)
			if err != nil || latest != v {
				t.Fatalf("round %d: ReadLatest on the stale handle = v%d, %v; the other client was just acked v%d", round, latest, err, v)
			}
		}); n != 1 {
			t.Fatalf("round %d: ReadLatest made %d version-manager trips, want 1", round, n)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round %d: ReadLatest returned stale bytes", round)
		}
		v, err = writer.Write(ctx, data, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if latest, _, err := b.Latest(ctx); err != nil || latest != v {
			t.Fatalf("round %d: Latest on the stale handle = v%d, %v; want v%d", round, latest, err, v)
		}
	}
}

// TestKnownVersionsStayReadableWithVersionManagerDown: what a handle
// already knows published it reads from the metadata and data providers
// alone — so with the version manager gone those reads (and a snapshot
// cursor's) are byte-identical, while anything that must ask fails.
func TestKnownVersionsStayReadableWithVersionManagerDown(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	v1data := pattern(1, 4*pageSize)
	v1, err := b.Write(ctx, v1data, 0)
	if err != nil {
		t.Fatal(err)
	}
	patch := pattern(2, pageSize)
	v2, err := b.Write(ctx, patch, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	v2data := append([]byte(nil), v1data...)
	copy(v2data[pageSize:], patch)

	// A second handle that never wrote: it knows v2 from its open alone.
	c2, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	b2, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	cursor, err := b2.NewReader(ctx, v1)
	if err != nil {
		t.Fatal(err)
	}

	if err := cl.KillVMReplica(0); err != nil {
		t.Fatal(err)
	}

	for _, h := range []*core.Blob{b, b2} {
		for v, want := range map[meta.Version][]byte{v1: v1data, v2: v2data} {
			got := make([]byte, len(want))
			if _, err := h.Read(ctx, got, 0, v); err != nil {
				t.Fatalf("read of known v%d with the version manager down: %v", v, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read of known v%d with the version manager down: wrong bytes", v)
			}
		}
		if err := h.WaitVersion(ctx, v2); err != nil {
			t.Errorf("WaitVersion of a known version with the version manager down: %v", err)
		}
	}
	streamed, err := io.ReadAll(cursor)
	if err != nil {
		t.Fatalf("snapshot cursor with the version manager down: %v", err)
	}
	if !bytes.Equal(streamed, v1data) {
		t.Fatal("snapshot cursor with the version manager down: wrong bytes")
	}

	// What must ask fails with the transport's error — not with a stale
	// answer, and not as "unpublished".
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	got := make([]byte, pageSize)
	if _, err := b2.ReadLatest(rctx, got, 0); err == nil || !strings.Contains(err.Error(), "dial") {
		t.Errorf("ReadLatest with the version manager down: err = %v, want the dial failure", err)
	}
	if _, err := b2.Read(rctx, got, 0, v2+1); err == nil || !strings.Contains(err.Error(), "dial") {
		t.Errorf("read above the watermark with the version manager down: err = %v, want the dial failure", err)
	}
	if w := b2.PublishedWatermark(); w != v2 {
		t.Errorf("failed version steps moved the watermark to %d", w)
	}
}

// TestWatermarkUnderConcurrentWritersAndReaders shares one handle among
// writers and readers (the -race gate on the watermark): it never
// decreases, every read of a published version succeeds with a returned
// latest at or above that version, and it only ever holds a version that
// really is published.
func TestWatermarkUnderConcurrentWritersAndReaders(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	// A second client writes too, so the shared handle also learns of
	// versions through its slow path, not only from its own commits.
	c2, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	other, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 3
		readers = 4
		rounds  = 12
	)
	var acked atomic.Uint64 // newest version acknowledged to any writer
	noteAcked := func(v meta.Version) {
		for cur := acked.Load(); v > cur && !acked.CompareAndSwap(cur, v); cur = acked.Load() {
		}
	}
	var wg sync.WaitGroup
	var writing atomic.Int32
	writing.Store(writers + 1)
	write := func(h *core.Blob, slot int) {
		defer wg.Done()
		defer writing.Add(-1)
		for r := 0; r < rounds; r++ {
			v, err := h.Write(ctx, pattern(byte(slot*rounds+r), pageSize), uint64(slot*rounds+r)%64*pageSize)
			if err != nil {
				t.Errorf("writer %d: %v", slot, err)
				return
			}
			if w := b.PublishedWatermark(); h == b && w < v {
				t.Errorf("writer %d: watermark %d below the version its own write returned, %d", slot, w, v)
			}
			noteAcked(v)
		}
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go write(b, w)
	}
	wg.Add(1)
	go write(other, writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			buf := make([]byte, pageSize)
			var last meta.Version
			for writing.Load() > 0 {
				w := b.PublishedWatermark()
				if w < last {
					t.Errorf("reader %d: watermark went from %d to %d", r, last, w)
					return
				}
				last = w
				top := acked.Load()
				if top == 0 {
					// Nothing acked yet, and a v0 read makes no round
					// trip: a spin here would starve the writers of CPU
					// and never let a virtual clock advance.
					time.Sleep(time.Millisecond)
					continue
				}
				v := meta.Version(rng.Int63n(int64(top) + 1))
				latest, err := b.Read(ctx, buf, uint64(rng.Intn(64))*pageSize, v)
				if err != nil {
					t.Errorf("reader %d: read of published v%d: %v", r, v, err)
					return
				}
				if latest < v {
					t.Errorf("reader %d: read v%d returned latest %d", r, v, latest)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	// The watermark holds only what the version manager reported: never
	// more than is published, and by now at least this handle's own acks.
	latest, _, err := other.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if latest != (writers+1)*rounds {
		t.Fatalf("latest published = %d, want %d", latest, (writers+1)*rounds)
	}
	if w := b.PublishedWatermark(); w > latest {
		t.Errorf("watermark %d above the latest published version %d", w, latest)
	}
}

// TestReadVersionSpanOnlyWhenAsked: a read that asks the version manager
// shows the trip as a read.version span under its core.ReadBlob root —
// ReadLatest always — and a read of a known version shows none.
func TestReadVersionSpanOnlyWhenAsked(t *testing.T) {
	_, c := launch(t, cluster.Config{TraceSampleEvery: 1})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(ctx, pattern(1, pageSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	// versionSpans returns the read.version spans recorded so far, after
	// checking each hangs under a core.ReadBlob root of its own trace
	// and lies inside it.
	versionSpans := func() int {
		t.Helper()
		n := 0
		spans := c.Tracer().Spans()
		for _, sp := range spans {
			if sp.Name != "read.version" {
				continue
			}
			n++
			under := false
			for _, root := range spans {
				if root.ID == sp.Parent && root.TraceID == sp.TraceID {
					under = root.Name == "core.ReadBlob" && root.Parent == 0 &&
						root.Start <= sp.Start && sp.Start+sp.Dur <= root.Start+root.Dur
				}
			}
			if !under {
				t.Errorf("read.version span %#x is not inside a core.ReadBlob root span", sp.ID)
			}
		}
		return n
	}
	buf := make([]byte, pageSize)
	before := versionSpans()
	for i := 0; i < 3; i++ {
		if _, err := b.Read(ctx, buf, 0, v); err != nil {
			t.Fatal(err)
		}
	}
	if n := versionSpans() - before; n != 0 {
		t.Errorf("3 reads of a known version recorded %d read.version spans", n)
	}
	if _, err := b.ReadLatest(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(ctx, buf, 0, v+1); !errors.Is(err, core.ErrNotPublished) {
		t.Fatalf("read of unpublished version: %v", err)
	}
	if n := versionSpans() - before; n != 2 {
		t.Errorf("ReadLatest and a read above the watermark recorded %d read.version spans, want 2", n)
	}
}

func TestWaitVersionKnownReturnsAtOnce(t *testing.T) {
	_, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 16*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(ctx, pattern(1, pageSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A cancelled context: any round trip would fail, a known version
	// needs none.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := b.WaitVersion(dead, v); err != nil {
		t.Errorf("WaitVersion of a known version = %v, want nil without a round trip", err)
	}
	if err := b.WaitVersion(dead, v+1); err == nil {
		t.Error("WaitVersion of an unpublished version returned nil on a cancelled context")
	}
	// Every poll feeds the watermark: waiting for v+2 while another
	// goroutine publishes v+1 and v+2 leaves the handle knowing v+2.
	other, err := c.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 2; i++ {
			if _, err := b.Write(ctx, pattern(2, pageSize), 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wctx, stop := context.WithTimeout(ctx, 10*time.Second)
	defer stop()
	if err := other.WaitVersion(wctx, v+2); err != nil {
		t.Fatal(err)
	}
	if w := other.PublishedWatermark(); w < v+2 {
		t.Errorf("watermark after WaitVersion(%d) = %d", v+2, w)
	}
}

// BenchmarkReadKnownVersion is a 4 KiB Read(v) of a version the handle
// knows published; vm_trips/op is the version-manager round trips a read
// makes: 0 here, 1 for the ReadLatest twin, which must always ask. The
// gap between the two is what the version step costs on this fabric.
func BenchmarkReadKnownVersion(b *testing.B) {
	benchSmallRead(b, func(ctx context.Context, blob *core.Blob, buf []byte, off uint64, v meta.Version) error {
		_, err := blob.Read(ctx, buf, off, v)
		return err
	})
}

func BenchmarkReadLatest(b *testing.B) {
	benchSmallRead(b, func(ctx context.Context, blob *core.Blob, buf []byte, off uint64, _ meta.Version) error {
		_, err := blob.ReadLatest(ctx, buf, off)
		return err
	})
}

func benchSmallRead(b *testing.B, read func(context.Context, *core.Blob, []byte, uint64, meta.Version) error) {
	_, c := launch(b, cluster.Config{DataProviders: 2, MetaProviders: 2})
	ctx := context.Background()
	const pages = 256
	blob, err := c.CreateBlob(ctx, pageSize, pages*pageSize)
	if err != nil {
		b.Fatal(err)
	}
	v, err := blob.Write(ctx, pattern(1, pages*pageSize), 0)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, pageSize)
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(pageSize)
	b.ReportAllocs()
	b.ResetTimer()
	asked := c.VersionTrips.Value()
	for i := 0; i < b.N; i++ {
		if err := read(ctx, blob, buf, uint64(rng.Intn(pages))*pageSize, v); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.VersionTrips.Value()-asked)/float64(b.N), "vm_trips/op")
}
