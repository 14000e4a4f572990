//go:build goexperiment.synctest

package cluster_test

import (
	"context"
	"math/rand"
	"testing"

	"blob/internal/cluster"
	"blob/internal/dht"
	"blob/internal/erasure"
)

// opCount is what one client operation costs the services: the
// pmanager.MAllocate, provider.MPutPages and provider.MGetPages requests
// its trace reaches, and the metadata keys the dht stores look up and
// newly store.
type opCount struct {
	allocs, puts, gets int
	dhtGets, dhtPuts   int64
}

// TestOpCounts pins the exact per-operation request counts of a 1 MiB
// write of 64 KiB pages, a 1 MiB read and a 4 KiB read, in each
// redundancy geometry, on a 4-provider cluster. A change that moves one
// of these counts shows it here, in the table's diff.
func TestOpCounts(t *testing.T) {
	const (
		pageSize = 64 << 10
		mib      = 1 << 20
	)
	type ops struct{ write, read, small opCount }
	for _, tt := range []struct {
		name string
		cfg  cluster.Config
		want ops
	}{
		{"r=1", cluster.Config{}, ops{
			write: opCount{allocs: 1, puts: 4, dhtPuts: 7},
			read:  opCount{gets: 4, dhtGets: 8},
			small: opCount{gets: 1, dhtGets: 5},
		}},
		{"r=2", cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: 1}}, ops{
			write: opCount{allocs: 1, puts: 4, dhtPuts: 7},
			read:  opCount{gets: 2, dhtGets: 8},
			small: opCount{gets: 1, dhtGets: 5},
		}},
		{"rs(2,1)", cluster.Config{Redundancy: erasure.Redundancy{K: 2, M: 1}}, ops{
			write: opCount{allocs: 1, puts: 4, dhtPuts: 7},
			read:  opCount{gets: 4, dhtGets: 8},
			small: opCount{gets: 1, dhtGets: 5},
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := tt.cfg
			cfg.DataProviders, cfg.MetaProviders, cfg.TraceSampleEvery = 4, 4, 1
			cl, err := launch(t, cfg)
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
			b, err := c.CreateBlob(ctx, pageSize, 64*mib)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, mib)
			rand.New(rand.NewSource(5)).Read(want)

			// measure runs op and counts what its trace, rooted at a
			// span named root, reached.
			measure := func(root string, op func() error) opCount {
				t.Helper()
				gets0, puts0 := dhtOps(cl.MetaStores)
				if err := op(); err != nil {
					t.Fatal(err)
				}
				var n opCount
				gets, puts := dhtOps(cl.MetaStores)
				n.dhtGets, n.dhtPuts = gets-gets0, puts-puts0
				var id uint64
				for _, sp := range c.Tracer().Spans() {
					if sp.Name == root {
						id = sp.TraceID // the newest such root
					}
				}
				for _, sp := range cl.TraceSpans(id) {
					switch sp.Name {
					case "pmanager.MAllocate":
						n.allocs++
					case "provider.MPutPages":
						n.puts++
					case "provider.MGetPages":
						n.gets++
					}
				}
				return n
			}
			var got ops
			got.write = measure("core.WriteBlob", func() error {
				_, err := b.Write(ctx, want, 0)
				return err
			})
			buf := make([]byte, mib)
			got.read = measure("core.ReadBlob", func() error {
				_, err := b.Read(ctx, buf, 0, 1)
				return err
			})
			got.small = measure("core.ReadBlob", func() error {
				return b.ReadAt(ctx, buf[:4<<10], 3*pageSize+8<<10, 1)
			})
			if got != tt.want {
				t.Errorf("per-op counts\n got %+v\nwant %+v", got, tt.want)
			}
		})
	}
}

// dhtOps sums the keys the stores looked up and newly stored.
func dhtOps(stores []*dht.Store) (gets, puts int64) {
	for _, s := range stores {
		gets += s.Gets.Value()
		puts += s.Puts.Value()
	}
	return gets, puts
}
