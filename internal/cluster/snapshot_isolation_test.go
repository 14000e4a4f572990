package cluster_test

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/meta"
)

// The snapshot-isolation invariant (docs/workloads.md): once a client
// pins a published version V, every page of V must reread byte-identical
// forever, no matter how many later versions ingestion publishes on top
// — with no lease, lock, or any other server-side cooperation from the
// readers. These tests state it directly against core.Blob.ReadPinned
// under -race: a writer hammers versions V+1..V+k over the same extent
// while concurrent reader clients reread V and compare against a frozen
// model. The same invariant runs on the simulated fabric and on real
// TCP loopback sockets, since the two transports exercise different
// connection and buffer management.

// snapshotIsolationInvariant drives the invariant against any
// deployment reachable through newClient. Each reader gets its own
// client (own connections); the writer keeps the only mutable model.
func snapshotIsolationInvariant(t *testing.T, newClient func(t *testing.T) *core.Client) {
	ctx := context.Background()
	const (
		page    = 1 << 10
		pages   = 16
		readers = 3
		passes  = 20
		hammer  = 12 // versions published on top of the pin
	)

	w := newClient(t)
	b, err := w.CreateBlob(ctx, page, pages*page)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, pages*page)
	rng := rand.New(rand.NewSource(42))
	write := func(off uint64, n int) meta.Version {
		t.Helper()
		seg := make([]byte, n)
		rng.Read(seg)
		v, err := b.Write(ctx, seg, off)
		if err != nil {
			t.Fatal(err)
		}
		copy(model[off:], seg)
		return v
	}
	write(0, pages*page)
	pin := write(2*page, 3*page)
	snap := append([]byte(nil), model...) // frozen contents of version `pin`

	errCh := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rc := newClient(t)
		rb, err := rc.OpenBlob(ctx, b.ID())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, pages*page)
			for p := 0; p < passes; p++ {
				if err := rb.ReadPinned(ctx, buf, 0, pin); err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(buf, snap) {
					errCh <- &snapshotViolation{reader: r, pass: p, version: pin}
					return
				}
			}
		}(r)
	}
	// The hammer: overlapping page-aligned writes covering the pinned
	// extent, each publishing a new version while the readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		offRng := rand.New(rand.NewSource(7))
		for i := 0; i < hammer; i++ {
			off := uint64(offRng.Intn(pages-2)) * page
			if _, err := b.Write(ctx, bytes.Repeat([]byte{byte(i)}, 2*page), off); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// A fresh client still reads the pin byte-identically after the
	// storm — the snapshot outlives every connection that observed it.
	fc := newClient(t)
	fb, err := fc.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pages*page)
	if err := fb.ReadPinned(ctx, buf, 0, pin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, snap) {
		t.Fatalf("fresh client read of pinned v%d differs from snapshot", pin)
	}
	latest, _, err := fb.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if latest < pin+hammer {
		t.Fatalf("latest = v%d, want >= v%d (hammer underran)", latest, pin+hammer)
	}
}

type snapshotViolation struct {
	reader, pass int
	version      meta.Version
}

func (e *snapshotViolation) Error() string {
	return "snapshot violation: reader reread of pinned version produced different bytes"
}

func TestSnapshotIsolationNetsim(t *testing.T) {
	cl, err := launch(t, cluster.Config{DataProviders: 4, MetaProviders: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Shutdown)
	snapshotIsolationInvariant(t, func(t *testing.T) *core.Client {
		c, err := cl.NewClient(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	})
}

func TestSnapshotIsolationTCP(t *testing.T) {
	opts := tcpDeployment(t)
	opts.CacheNodes = -1
	snapshotIsolationInvariant(t, func(t *testing.T) *core.Client {
		c, err := core.NewClient(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	})
}
