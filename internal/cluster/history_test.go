package cluster_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"blob/internal/cluster"
	"blob/internal/meta"
)

// TestHistoricalReadsSurviveVMLogTruncation pins the contract behind
// time-travel reads: reading at an explicit old version must keep
// working after the vmanager group's publish log has been truncated
// (VMMaxLogRecords). Truncation only limits follower catch-up via log
// replay — the blob-state snapshots carry every version's size and
// history, and page metadata lives in the DHT untouched — so every
// historical version of a 40-version blob must stay byte-exact and
// VersionSize-queryable afterwards.
func TestHistoricalReadsSurviveVMLogTruncation(t *testing.T) {
	cl, err := launch(t, cluster.Config{
		DataProviders: 4,
		MetaProviders: 4,
		VReplicas:     2,
		// Far below the 40 publishes issued here, forcing repeated
		// half-drop truncations at the group leader while history builds.
		VMMaxLogRecords: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Shutdown)
	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	const (
		page     = 1 << 10
		pages    = 16
		versions = 40
	)
	b, err := c.CreateBlob(ctx, page, pages*page)
	if err != nil {
		t.Fatal(err)
	}

	// In-memory model: full extent snapshot + logical size per version.
	model := make([]byte, pages*page)
	var size uint64
	snaps := make(map[meta.Version][]byte, versions)
	sizes := make(map[meta.Version]uint64, versions)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < versions; i++ {
		n := (1 + rng.Intn(3)) * page
		off := uint64(rng.Intn(pages-3)) * page
		seg := make([]byte, n)
		rng.Read(seg)
		v, err := b.Write(ctx, seg, off)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		copy(model[off:], seg)
		if end := off + uint64(n); end > size {
			size = end
		}
		snaps[v] = append([]byte(nil), model[:size]...)
		sizes[v] = size
	}

	if len(snaps) != versions || len(snaps[1]) == 0 {
		t.Fatalf("expected %d sequential versions starting at v1, got %d snapshots", versions, len(snaps))
	}

	// Every published version — including the ones whose log records
	// were dropped long ago — reads back byte-exact, and its size is
	// still queryable at the version manager.
	for v, want := range snaps {
		got, err := b.VersionSize(ctx, v)
		if err != nil {
			t.Fatalf("VersionSize(v%d): %v", v, err)
		}
		if got != sizes[v] {
			t.Fatalf("VersionSize(v%d) = %d, want %d", v, got, sizes[v])
		}
		buf := make([]byte, len(want))
		if _, err := b.Read(ctx, buf, 0, v); err != nil {
			t.Fatalf("read at v%d: %v", v, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("contents of v%d diverged from the model", v)
		}
	}

	// A fresh client (cold metadata cache, fresh vmanager session) sees
	// the same history.
	c2, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	b2, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	probe := meta.Version(1) // the oldest — truncated first
	buf := make([]byte, len(snaps[probe]))
	if _, err := b2.Read(ctx, buf, 0, probe); err != nil {
		t.Fatalf("fresh-client read at v%d: %v", probe, err)
	}
	if !bytes.Equal(buf, snaps[probe]) {
		t.Fatalf("fresh-client contents of v%d diverged", probe)
	}
}
