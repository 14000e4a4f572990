// Concurrent: a miniature of the paper's Figure 3(c) experiment,
// runnable in seconds. N reader clients and M writer clients hammer
// disjoint segments of one blob over the simulated Grid'5000 fabric with
// no synchronization; the program prints the average per-client
// bandwidth, demonstrating that concurrency barely degrades it — the
// paper's headline property.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"blob"
	"blob/internal/netsim"
)

const (
	pageSize = 16 << 10
	segPages = 16
	segBytes = segPages * pageSize
	region   = 256 // pages
	iters    = 6
)

func main() {
	cl, err := blob.Launch(blob.ClusterConfig{
		DataProviders: 8,
		MetaProviders: 8,
		Net:           netsim.Grid5000(),
		CacheNodes:    -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Shutdown()
	ctx := context.Background()

	admin, err := cl.NewClient(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	b, err := admin.CreateBlob(ctx, pageSize, region*pageSize)
	if err != nil {
		log.Fatal(err)
	}
	// Prefill so readers hit real pages.
	if _, err := b.Write(ctx, make([]byte, region*pageSize), 0); err != nil {
		log.Fatal(err)
	}

	for _, n := range []int{1, 2, 4, 8} {
		readMBps := runClients(ctx, cl, b.ID(), n, false)
		writeMBps := runClients(ctx, cl, b.ID(), n, true)
		fmt.Printf("%2d concurrent clients: read %6.2f MB/s/client, write %6.2f MB/s/client (x%d time scale)\n",
			n, readMBps, writeMBps, netsim.TimeScale)
	}
	fmt.Println("\nper-client bandwidth holds nearly flat as concurrency grows —")
	fmt.Println("reads and writes serialize only at the version manager's tiny RPC.")
}

// runClients starts n clients on their own simulated hosts, each looping
// over disjoint segments, and returns the mean per-client bandwidth.
func runClients(ctx context.Context, cl *blob.Cluster, blobID uint64, n int, write bool) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := "r"
			if write {
				mode = "w"
			}
			c, err := cl.NewClientAt(ctx, fmt.Sprintf("ex-%s%d", mode, i))
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			bb, err := c.OpenBlob(ctx, blobID)
			if err != nil {
				log.Fatal(err)
			}
			buf := make([]byte, segBytes)
			slots := uint64(region / segPages)
			for it := 0; it < iters; it++ {
				off := (uint64(it*n+i) % slots) * segBytes
				if write {
					if _, err := bb.Write(ctx, buf, off); err != nil {
						log.Fatal(err)
					}
				} else {
					if _, err := bb.ReadLatest(ctx, buf, off); err != nil {
						log.Fatal(err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	perClientBytes := float64(iters * segBytes)
	return perClientBytes / elapsed / 1e6 * netsim.TimeScale
}
