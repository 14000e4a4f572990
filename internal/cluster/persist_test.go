package cluster_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"blob/internal/cluster"
)

// TestPersistentProvidersSurviveRestart is the subsystem's cluster-level
// acceptance: pages written through the client remain readable after
// every data provider is killed and relaunched over its data directory.
// RAM providers would serve nothing after the same sequence.
func TestPersistentProvidersSurviveRestart(t *testing.T) {
	cl, err := launch(t, cluster.Config{
		DataProviders: 2,
		MetaProviders: 2,
		DataDir:       t.TempDir(),
		SegmentSize:   4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()

	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*pageSize)
	for i := range data {
		data[i] = byte(i * 31)
	}
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Kill and relaunch every data provider over its directory.
	for i := range cl.DataStores {
		if err := cl.RestartDataProvider(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.TotalDataPages(); got != 8 {
		t.Fatalf("recovered pages = %d, want 8", got)
	}

	// A fresh client (the old one's connections died with the servers)
	// reads everything back through the normal path.
	c2, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	b2, err := c2.OpenBlob(ctx, b.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := b2.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data mismatch after provider restart")
	}
}

// TestRAMProvidersLosePagesOnRestart pins the contrast: without DataDir
// the same kill/relaunch sequence leaves the providers empty — the
// diskstore is what makes restart survivable.
func TestRAMProvidersLosePagesOnRestart(t *testing.T) {
	cl, err := launch(t, cluster.Config{DataProviders: 2, MetaProviders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, make([]byte, 4*pageSize), 0); err != nil {
		t.Fatal(err)
	}
	for i := range cl.DataStores {
		if err := cl.RestartDataProvider(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.TotalDataPages(); got != 0 {
		t.Errorf("RAM providers kept %d pages across restart", got)
	}
}

// tornLastSegment cuts n bytes off the highest-id segment file in dir,
// simulating a crash that tore the final append.
func tornLastSegment(t *testing.T, dir string, n int64) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	sort.Strings(matches)
	last := matches[len(matches)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestTornWriteRecoveredWithoutEarlierLoss kills a provider, tears the
// tail of its newest segment (a crash mid-append), relaunches it and
// verifies the earlier version is fully readable while the torn write's
// version reports its page unavailable rather than serving bad bytes.
func TestTornWriteRecoveredWithoutEarlierLoss(t *testing.T) {
	dataDir := t.TempDir()
	cl, err := launch(t, cluster.Config{
		DataProviders: 1,
		MetaProviders: 1,
		DataDir:       dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Repeat([]byte{0xA5}, 2*pageSize)
	v1, err := b.Write(ctx, first, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The write that will be torn: one page at a fresh offset.
	v2, err := b.Write(ctx, bytes.Repeat([]byte{0x5A}, pageSize), 4*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	cl.DataServers[0].Close()
	tornLastSegment(t, filepath.Join(dataDir, "provider-0"), 3)
	if err := cl.RestartDataProvider(0); err != nil {
		t.Fatal(err)
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
	got := make([]byte, len(first))
	if _, err := b2.Read(ctx, got, 0, v1); err != nil {
		t.Fatalf("earlier write lost to torn tail: %v", err)
	}
	if !bytes.Equal(got, first) {
		t.Error("earlier write corrupted by torn-tail recovery")
	}
	// The torn page must be reported unavailable, never served corrupt.
	torn := make([]byte, pageSize)
	if _, err := b2.Read(ctx, torn, 4*pageSize, v2); err == nil {
		t.Error("torn page served after truncation")
	}
}
