package core_test

// Tests for the zero-copy data path and the pipelined write protocol:
// byte-identical round trips under concurrency (the -race gate) and
// pipelined-write failure handling.

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
)

// TestVectoredConcurrentRoundTrips is the -race gate on the pooled
// buffer + zero-copy path end to end: concurrent writers and readers
// over shared providers, every read verified byte-identical against
// what its writer stored.
func TestVectoredConcurrentRoundTrips(t *testing.T) {
	_, c := launch(t, cluster.Config{DataProviders: 4, MetaProviders: 2, Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()
	const workers = 6
	const rounds = 8
	blob, err := c.CreateBlob(ctx, pageSize, 256*pageSize) // next power of two above workers*rounds*4
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			data := make([]byte, 4*pageSize)
			got := make([]byte, 4*pageSize)
			for r := 0; r < rounds; r++ {
				rng.Read(data)
				off := uint64(w*rounds+r) * 4 * pageSize
				v, err := blob.Write(ctx, data, off)
				if err != nil {
					errs[w] = fmt.Errorf("worker %d round %d write: %w", w, r, err)
					return
				}
				if _, err := blob.Read(ctx, got, off, v); err != nil {
					errs[w] = fmt.Errorf("worker %d round %d read: %w", w, r, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs[w] = fmt.Errorf("worker %d round %d: bytes differ", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelinedWriteAbortsOnPushFailure pins the failure half of the
// overlapped protocol: when the page push fails, the client aborts the
// concurrently assigned version, the version manager's dead-writer
// repair (armed via RepairTimeout, as in any deployment running the
// pipelined protocol) immediately materializes the no-op patch, and
// later writes publish promptly instead of waiting out the deadline.
func TestPipelinedWriteAbortsOnPushFailure(t *testing.T) {
	cl, c := launch(t, cluster.Config{
		DataProviders: 2,
		RepairTimeout: 30 * time.Second, // far above the test runtime: only the abort can trigger repair
	})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Every connection to either provider resets: the push fails after
	// AssignVersion already ran concurrently.
	cl.FlakyProvider(0, 1)
	cl.FlakyProvider(1, 1)
	big := pattern(1, 16*pageSize)
	if _, err := b.Write(ctx, big, 0); err == nil {
		t.Fatal("write to unreachable providers succeeded, want push failure")
	}
	cl.Heal()
	// A following small write must assign and publish without waiting on
	// the 30-second dead-writer deadline; the whole test deadline proves
	// the abort path repaired the hole immediately.
	small := pattern(2, pageSize)
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	v, err := b.Write(wctx, small, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, small) {
		t.Fatal("post-failure write round trip corrupted data")
	}
}
