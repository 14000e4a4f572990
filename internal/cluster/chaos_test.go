package cluster_test

// Chaos smoke (docs/robustness.md): concurrent writers and readers over
// the simulated fabric while the new fault API degrades it mid-run — a
// gray-slow provider, a flaky provider dropping a quarter of its
// connections, a flaky reader-to-storage link — with hedging and
// breakers enabled, the production shape. The invariants are absolute,
// not statistical: an acked write is never lost (its bytes reread
// identical after the storm), and a pinned version rereads
// byte-identical even while the fabric is misbehaving. Operations may
// fail transiently under the storm; they may never lie. CI runs this
// under the race detector alongside the snapshot-isolation drill.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/erasure"
	"blob/internal/meta"
)

func TestChaosStormNoAckedWriteLoss(t *testing.T) {
	ctx := context.Background()
	cl, err := launch(t, cluster.Config{
		DataProviders: 4,
		MetaProviders: 4,
		Redundancy:    erasure.Redundancy{K: 1, M: 1},
		// A write killed mid-flight by a dropped connection leaves its
		// allocated version uncommitted; dead-writer repair is what
		// unblocks the publish window behind the hole. Any deployment
		// facing real faults runs with it armed.
		RepairTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()

	const (
		page      = 1 << 10
		regPages  = 8 // pages per writer region
		writers   = 2
		perWriter = 10
		readers   = 2
	)

	admin, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	blob, err := admin.CreateBlob(ctx, page, writers*regPages*page)
	if err != nil {
		t.Fatal(err)
	}

	// acked records every write the storm acknowledged: version, offset,
	// and the exact bytes. The final sweep holds each one to its ack.
	type ackedWrite struct {
		v    meta.Version
		off  uint64
		data []byte
	}
	var (
		mu    sync.Mutex
		acked []ackedWrite
	)

	// retry runs op until it succeeds or the storm budget runs out —
	// transient failures under injected faults are legitimate; only
	// giving up entirely is not.
	retry := func(what string, op func() error) error {
		var err error
		for i := 0; i < 60; i++ {
			if err = op(); err == nil {
				return nil
			}
			time.Sleep(25 * time.Millisecond)
		}
		return fmt.Errorf("%s: retries exhausted: %w", what, err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	// The storm: a gray-slow provider, a flaky provider, a flaky
	// reader-to-storage link; heal and re-injure midway so recovery
	// paths run too. All cleared before the final sweep.
	stormDone := make(chan struct{})
	var stormWg sync.WaitGroup
	stormWg.Add(1)
	go func() {
		defer stormWg.Done()
		cl.SlowProvider(0, 20*time.Millisecond, 5*time.Millisecond)
		cl.FlakyProvider(1, 0.25)
		cl.FlakyLink("reader0", cl.DataHostName(2), 0.2)
		select {
		case <-time.After(300 * time.Millisecond):
		case <-stormDone:
			return
		}
		cl.Heal()
		select {
		case <-time.After(100 * time.Millisecond):
		case <-stormDone:
			return
		}
		cl.SlowProvider(2, 20*time.Millisecond, 5*time.Millisecond)
		cl.FlakyProvider(3, 0.25)
		<-stormDone
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := cl.NewClientAt(ctx, fmt.Sprintf("writer%d", w))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			b, err := c.OpenBlob(ctx, blob.ID())
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(w)*97 + 11))
			off := uint64(w) * regPages * page
			for i := 0; i < perWriter; i++ {
				seg := make([]byte, regPages*page)
				rng.Read(seg)
				var v meta.Version
				err := retry(fmt.Sprintf("writer%d write %d", w, i), func() error {
					var werr error
					v, werr = b.Write(ctx, seg, off)
					return werr
				})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				acked = append(acked, ackedWrite{v, off, seg})
				mu.Unlock()
			}
		}(w)
	}

	writersDone := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := cl.NewClientAt(ctx, fmt.Sprintf("reader%d", r))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			b, err := c.OpenBlob(ctx, blob.ID())
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(r)*31 + 7))
			buf := make([]byte, regPages*page)
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				mu.Lock()
				var aw ackedWrite
				if len(acked) > 0 {
					aw = acked[rng.Intn(len(acked))]
					aw.data = append([]byte(nil), aw.data...)
				}
				mu.Unlock()
				if aw.data == nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				// Pinned read mid-storm: transient errors are tolerated,
				// wrong bytes never.
				if _, err := b.Read(ctx, buf, aw.off, aw.v); err != nil {
					continue
				}
				if !bytes.Equal(buf, aw.data) {
					errs <- fmt.Errorf("reader%d: pinned read of v%v at %d returned wrong bytes mid-storm",
						r, aw.v, aw.off)
					return
				}
			}
		}(r)
	}

	go func() {
		// Close writersDone when every writer goroutine has finished; the
		// readers poll it. Writer completion is observable through acked
		// only with errs as the failure channel, so wait on the count.
		for {
			mu.Lock()
			n := len(acked)
			mu.Unlock()
			if n >= writers*perWriter || len(errs) > 0 {
				close(writersDone)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(stormDone)
	stormWg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The storm is over; the fabric is healed. Every acked write must
	// reread byte-identical at its pinned version — zero tolerance now.
	cl.Heal()
	buf := make([]byte, regPages*page)
	mu.Lock()
	final := append([]ackedWrite(nil), acked...)
	mu.Unlock()
	if len(final) != writers*perWriter {
		t.Fatalf("acked %d writes, want %d", len(final), writers*perWriter)
	}
	for _, aw := range final {
		if _, err := blob.Read(ctx, buf, aw.off, aw.v); err != nil {
			t.Fatalf("acked write v%v at %d lost after heal: %v", aw.v, aw.off, err)
		}
		if !bytes.Equal(buf, aw.data) {
			t.Fatalf("acked write v%v at %d rereads different bytes after heal", aw.v, aw.off)
		}
	}
}
