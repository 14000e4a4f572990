package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"blob/internal/cluster"
	"blob/internal/erasure"
	"blob/internal/gc"
	"blob/internal/meta"
)

// TestStressMixedWorkload runs writers, appenders and readers
// concurrently against one blob, then validates the complete version
// history against a flat reference model: every published version must
// equal the successive application of all patches up to it, in version
// order — the paper's global serializability — and a final garbage
// collection must preserve the surviving versions bit-for-bit.
func TestStressMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	cl, c := launch(t, cluster.Config{DataProviders: 5, MetaProviders: 5, Redundancy: erasure.Redundancy{K: 1, M: 1}, CacheNodes: 0})
	ctx := context.Background()
	const totalPages = 64
	b, err := c.CreateBlob(ctx, pageSize, totalPages*pageSize)
	if err != nil {
		t.Fatal(err)
	}

	type patch struct {
		version meta.Version
		offset  uint64
		data    []byte
	}
	var mu sync.Mutex
	var patches []patch

	const (
		writers       = 6
		appenders     = 2
		writesEach    = 6
		appendsEach   = 3
		readerClients = 3
	)

	var wg sync.WaitGroup
	// Random-offset writers.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := cl.NewClient(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			defer wc.Close()
			wb, err := wc.OpenBlob(ctx, b.ID())
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(w) * 131))
			for i := 0; i < writesEach; i++ {
				np := rng.Intn(5) + 1
				// Keep random writers inside the first half so appends
				// (second half) never collide with them in the model.
				off := uint64(rng.Intn(totalPages/2-np)) * pageSize
				data := pattern(byte(w*writesEach+i+1), np*pageSize)
				v, err := wb.Write(ctx, data, off)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mu.Lock()
				patches = append(patches, patch{version: v, offset: off, data: data})
				mu.Unlock()
			}
		}(w)
	}
	// Appenders: the version manager assigns their offsets.
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			ac, err := cl.NewClient(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			defer ac.Close()
			ab, err := ac.OpenBlob(ctx, b.ID())
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < appendsEach; i++ {
				data := pattern(byte(200+a*appendsEach+i), pageSize)
				v, off, err := ab.Append(ctx, data)
				if err != nil {
					t.Errorf("appender %d: %v", a, err)
					return
				}
				mu.Lock()
				patches = append(patches, patch{version: v, offset: off, data: data})
				mu.Unlock()
			}
		}(a)
	}
	// Readers: snapshot stability — reading the same version twice must
	// yield identical bytes even while writes race.
	for r := 0; r < readerClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rc, err := cl.NewClient(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			defer rc.Close()
			rb, err := rc.OpenBlob(ctx, b.ID())
			if err != nil {
				t.Error(err)
				return
			}
			buf1 := make([]byte, 4*pageSize)
			buf2 := make([]byte, 4*pageSize)
			for i := 0; i < 10; i++ {
				latest, _, err := rb.Latest(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if latest == 0 {
					continue
				}
				if _, err := rb.Read(ctx, buf1, 0, latest); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if _, err := rb.Read(ctx, buf2, 0, latest); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if !bytes.Equal(buf1, buf2) {
					t.Errorf("reader %d: version %d unstable across reads", r, latest)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// Validation: replay patches in version order against a flat model
	// and compare every published version.
	totalWrites := writers*writesEach + appenders*appendsEach
	latest, _, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if latest != meta.Version(totalWrites) {
		t.Fatalf("latest = %d, want %d", latest, totalWrites)
	}
	byVersion := make(map[meta.Version]patch, len(patches))
	for _, p := range patches {
		if _, dup := byVersion[p.version]; dup {
			t.Fatalf("two writes claim version %d", p.version)
		}
		byVersion[p.version] = p
	}
	flat := make([]byte, totalPages*pageSize)
	got := make([]byte, totalPages*pageSize)
	for v := meta.Version(1); v <= latest; v++ {
		p, ok := byVersion[v]
		if !ok {
			t.Fatalf("no writer holds version %d", v)
		}
		copy(flat[p.offset:], p.data)
		if _, err := b.Read(ctx, got, 0, v); err != nil {
			t.Fatalf("read v%d: %v", v, err)
		}
		if !bytes.Equal(got, flat) {
			t.Fatalf("v%d diverges from the serial replay", v)
		}
	}

	// Final GC below latest-2; survivors must be unchanged.
	horizon := latest - 2
	if _, err := gc.New(c).Collect(ctx, b.ID(), horizon); err != nil {
		t.Fatalf("gc: %v", err)
	}
	for v := horizon; v <= latest; v++ {
		p := byVersion[v]
		_ = p
		// Rebuild the model at version v.
		model := make([]byte, totalPages*pageSize)
		for u := meta.Version(1); u <= v; u++ {
			pu := byVersion[u]
			copy(model[pu.offset:], pu.data)
		}
		if _, err := b.Read(ctx, got, 0, v); err != nil {
			t.Fatalf("post-gc read v%d: %v", v, err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("post-gc v%d corrupted", v)
		}
	}
	// Collected versions must now fail.
	if horizon > 1 {
		if _, err := b.Read(ctx, got, 0, 1); err == nil {
			t.Error("collected version still readable")
		}
	}
}
