package bench

import (
	"context"
	"fmt"
	"time"

	"blob/internal/cluster"
	"blob/internal/dht"
	"blob/internal/netsim"
	"blob/internal/pmanager"
)

// Ablation experiments for the design choices DESIGN.md calls out:
// RPC aggregation, client metadata caching, placement strategy,
// page-size (striping vs streaming, paper §V.A) and replication cost.

// AblationPoint is one named measurement.
type AblationPoint struct {
	Name  string
	Value float64
	Unit  string
}

// AblateBatching compares storing one write's metadata through the
// aggregated MultiPut path against naive one-RPC-per-node puts — the
// mechanism of paper §V.A ("delays RPC calls to a single machine and
// streams all of them in a single real RPC call").
func AblateBatching(providers int, segPages uint64, sc Scale) ([]AblationPoint, error) {
	cl, err := grid5000Cluster(providers, sc, 0)
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()
	ctx := context.Background()
	c, err := cl.NewClient(ctx)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	b, err := c.CreateBlob(ctx, sc.PageSize, sc.BlobPages*sc.PageSize)
	if err != nil {
		return nil, err
	}

	// Batched: the normal write path.
	seg := make([]byte, segPages*sc.PageSize)
	var batched time.Duration
	for i := 0; i < sc.Iterations; i++ {
		res, err := b.WriteDetailed(ctx, seg, uint64(i)*2*segPages*sc.PageSize)
		if err != nil {
			return nil, err
		}
		batched += res.MetaTime
	}
	batched /= time.Duration(sc.Iterations)

	// Unbatched: one single-entry MultiPut per tree node through the raw
	// DHT client (same nodes, same keys — re-put is idempotent, so timing the
	// duplicate-put path still pays one full network+backend round per
	// node, which is what the ablation isolates).
	kv, err := dht.NewDirectoryClient(ctx, c.Pool(), cl.DirAddr, 1)
	if err != nil {
		return nil, err
	}
	var unbatched time.Duration
	for i := 0; i < sc.Iterations; i++ {
		off := uint64(i) * 2 * segPages * sc.PageSize
		leaves, err := b.ReadMeta(ctx, off, uint64(len(seg)), 0)
		_ = leaves
		if err != nil {
			return nil, err
		}
		// Re-store each node of version i+1's write individually.
		t0 := time.Now()
		for j := uint64(0); j < segPages; j++ {
			key := uint64(i)*segPages + j
			if err := kv.MultiPut(ctx, []dht.KV{{Key: key | 1<<60, Value: []byte("ablate")}}); err != nil {
				return nil, err
			}
		}
		unbatched += time.Since(t0)
	}
	unbatched /= time.Duration(sc.Iterations)

	return []AblationPoint{
		{Name: "metadata write, aggregated RPC", Value: batched.Seconds() * 1e3, Unit: "ms"},
		{Name: fmt.Sprintf("%d sequential per-node puts", segPages), Value: unbatched.Seconds() * 1e3, Unit: "ms"},
	}, nil
}

// AblateCache measures the metadata read time of the same segment with
// the client cache disabled vs enabled — the mechanism behind the
// "Read (cached metadata)" series of Figure 3c.
func AblateCache(providers int, segPages uint64, sc Scale) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, cacheNodes := range []int{0, -1} {
		cl, err := grid5000Cluster(providers, sc, cacheNodes)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		c, err := cl.NewClient(ctx)
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		b, err := c.CreateBlob(ctx, sc.PageSize, sc.BlobPages*sc.PageSize)
		if err != nil {
			c.Close()
			cl.Shutdown()
			return nil, err
		}
		seg := make([]byte, segPages*sc.PageSize)
		v, err := b.Write(ctx, seg, 0)
		if err != nil {
			c.Close()
			cl.Shutdown()
			return nil, err
		}
		// Warm once (irrelevant when the cache is disabled).
		if _, err := b.ReadMeta(ctx, 0, uint64(len(seg)), v); err != nil {
			c.Close()
			cl.Shutdown()
			return nil, err
		}
		var total time.Duration
		for i := 0; i < sc.Iterations; i++ {
			t0 := time.Now()
			if _, err := b.ReadMeta(ctx, 0, uint64(len(seg)), v); err != nil {
				c.Close()
				cl.Shutdown()
				return nil, err
			}
			total += time.Since(t0)
		}
		name := "metadata read, cache disabled"
		if cacheNodes != 0 {
			name = "metadata read, cache 2^20 nodes"
		}
		out = append(out, AblationPoint{
			Name:  name,
			Value: (total / time.Duration(sc.Iterations)).Seconds() * 1e3,
			Unit:  "ms",
		})
		c.Close()
		cl.Shutdown()
	}
	return out, nil
}

// AblatePlacement compares the page distribution imbalance of the three
// placement strategies after a burst of writes: max/mean pages per
// provider (1.0 = perfectly balanced).
func AblatePlacement(providers int, writes int, segPages uint64, sc Scale) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, strat := range []pmanager.Strategy{pmanager.RoundRobin, pmanager.LeastLoaded, pmanager.PowerOfTwo} {
		cl, err := cluster.Launch(cluster.Config{
			DataProviders: providers,
			MetaProviders: providers,
			Net:           netsim.Fast(),
			Strategy:      strat,
			CacheNodes:    0,
		})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		c, err := cl.NewClient(ctx)
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		b, err := c.CreateBlob(ctx, sc.PageSize, sc.BlobPages*sc.PageSize)
		if err != nil {
			c.Close()
			cl.Shutdown()
			return nil, err
		}
		seg := make([]byte, segPages*sc.PageSize)
		for i := 0; i < writes; i++ {
			if _, err := b.Write(ctx, seg, uint64(i)*segPages*sc.PageSize); err != nil {
				c.Close()
				cl.Shutdown()
				return nil, err
			}
		}
		maxPages, total := int64(0), int64(0)
		for _, st := range cl.DataStores {
			n := st.Snapshot().PageCount
			total += n
			if n > maxPages {
				maxPages = n
			}
		}
		mean := float64(total) / float64(len(cl.DataStores))
		out = append(out, AblationPoint{
			Name:  "placement imbalance, " + strat.String(),
			Value: float64(maxPages) / mean,
			Unit:  "max/mean",
		})
		c.Close()
		cl.Shutdown()
	}
	return out, nil
}

// AblatePageSize sweeps the page size for a fixed segment — the
// striping-vs-streaming tradeoff of §V.A: too fine a grain and RPC
// overhead dominates; too coarse and parallelism is lost.
func AblatePageSize(providers int, segBytes uint64, pageSizes []uint64, iterations int) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, ps := range pageSizes {
		sc := Scale{PageSize: ps, BlobPages: 1 << 22, MetaPutDelay: 20 * time.Microsecond, Iterations: iterations}
		cl, err := grid5000Cluster(providers, sc, 0)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		c, err := cl.NewClient(ctx)
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		b, err := c.CreateBlob(ctx, ps, sc.BlobPages*ps)
		if err != nil {
			c.Close()
			cl.Shutdown()
			return nil, err
		}
		seg := make([]byte, segBytes)
		var total time.Duration
		for i := 0; i < iterations; i++ {
			t0 := time.Now()
			v, err := b.Write(ctx, seg, uint64(i)*segBytes)
			if err != nil {
				c.Close()
				cl.Shutdown()
				return nil, err
			}
			if _, err := b.Read(ctx, seg, uint64(i)*segBytes, v); err != nil {
				c.Close()
				cl.Shutdown()
				return nil, err
			}
			total += time.Since(t0)
		}
		out = append(out, AblationPoint{
			Name:  fmt.Sprintf("write+read %dKB segment, %dKB pages", segBytes/1024, ps/1024),
			Value: (total / time.Duration(iterations)).Seconds() * 1e3,
			Unit:  "ms",
		})
		c.Close()
		cl.Shutdown()
	}
	return out, nil
}

// AblateReplication measures the write cost of data replication factors.
func AblateReplication(providers int, segPages uint64, factors []int, sc Scale) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, r := range factors {
		cl, err := cluster.Launch(cluster.Config{
			DataProviders: providers,
			MetaProviders: providers,
			CoLocate:      true,
			Net:           netsim.Grid5000(),
			DataReplicas:  r,
			CacheNodes:    0,
			MetaPutDelay:  sc.MetaPutDelay,
		})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		c, err := cl.NewClient(ctx)
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		b, err := c.CreateBlob(ctx, sc.PageSize, sc.BlobPages*sc.PageSize)
		if err != nil {
			c.Close()
			cl.Shutdown()
			return nil, err
		}
		seg := make([]byte, segPages*sc.PageSize)
		var total time.Duration
		for i := 0; i < sc.Iterations; i++ {
			t0 := time.Now()
			if _, err := b.Write(ctx, seg, uint64(i)*segPages*sc.PageSize); err != nil {
				c.Close()
				cl.Shutdown()
				return nil, err
			}
			total += time.Since(t0)
		}
		out = append(out, AblationPoint{
			Name:  fmt.Sprintf("write %d pages, %d data replicas", segPages, r),
			Value: (total / time.Duration(sc.Iterations)).Seconds() * 1e3,
			Unit:  "ms",
		})
		c.Close()
		cl.Shutdown()
	}
	return out, nil
}
