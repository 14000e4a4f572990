package core_test

// Tests for breaker deferral on the read path (read.go, hedge.go,
// striped.go): an open breaker moves a replica to the end of a page's
// walk, and an rs(k,m) read asks an open-breaker shard provider only for
// a stripe it cannot decode without it. Neither leaves a provider that
// holds the page out of the read.

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/erasure"
	"blob/internal/meta"
	"blob/internal/provider"
	"blob/internal/rpc"
)

// breakerWindow bounds a read that must finish while the breakers a test
// opened are still open: well inside the breaker's 500 ms open window.
const breakerWindow = 250 * time.Millisecond

// refuseAnswer is a sink that refuses every answer, as a reader refuses
// one that does not parse: the pool counts such a call as its provider
// failing.
type refuseAnswer struct{}

func (refuseAnswer) ReadBody(*rpc.Body) error { return errors.New("injected: answer does not parse") }

// openBreaker opens c's circuit breaker on provider id with the
// consecutive failed calls that trip one: real stats calls whose
// answers the caller refuses. The provider itself stays up: it is a
// replica that healed while its breaker is still open.
func openBreaker(t *testing.T, c *core.Client, id uint32) {
	t.Helper()
	provs, err := c.AllProviders(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range provs {
		if p.ID != id {
			continue
		}
		for i := 0; c.Pool().Available(p.Addr); i++ {
			if i == 100 {
				t.Fatalf("breaker on provider %d never opened", id)
			}
			ctx := context.Background()
			c.Pool().Go(ctx, p.Addr, provider.MStats, nil, refuseAnswer{}).Wait(ctx)
		}
		return
	}
	t.Fatalf("no provider %d", id)
}

// readWithin reads len(want) bytes of version v at offset 0 under a
// breakerWindow deadline and checks them.
func readWithin(t *testing.T, b *core.Blob, v meta.Version, want []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), breakerWindow)
	defer cancel()
	got := make([]byte, len(want))
	_, err := b.Read(ctx, got, 0, v)
	if err == nil {
		err = ctx.Err() // served, but only after waiting out its deadline
	}
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read returned wrong bytes")
	}
}

// TestOpenBreakerDefersReplica pins breaker deferral on replicated
// blobs: the first open replicas of page 0's walk are healed but still
// behind open breakers. With the rest of the walk down, the read must
// still ask them, each once. With the rest up, they are not asked.
func TestOpenBreakerDefersReplica(t *testing.T) {
	for _, tt := range []struct {
		name     string
		replicas int
		open     int  // replicas from the head of page 0's walk with an open breaker
		downRest bool // the walk's other replicas are down
	}{
		{"r=2, other replica down", 2, 1, true},
		{"r=3, two open, third down", 3, 2, true},
		{"r=2, both up", 2, 1, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cl, c := launch(t, cluster.Config{
				DataProviders: tt.replicas, MetaProviders: 2, Redundancy: erasure.Redundancy{K: 1, M: tt.replicas - 1},
			})
			ctx := context.Background()
			b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(19, 8*pageSize)
			v, err := b.Write(ctx, data, 0)
			if err != nil {
				t.Fatal(err)
			}

			walk := tierProviders(t, b, v)
			gets := make([]int64, tt.open)
			for i, id := range walk[:tt.open] {
				gets[i] = cl.DataServices[id-1].GetLatency.Count()
				openBreaker(t, c, id)
			}
			if tt.downRest {
				for _, id := range walk[tt.open:] {
					cl.DataServers[id-1].Close()
				}
			}
			readWithin(t, b, v, data)
			if tt.downRest {
				return
			}
			for i, id := range walk[:tt.open] {
				if n := cl.DataServices[id-1].GetLatency.Count(); n != gets[i] {
					t.Errorf("provider %d behind an open breaker served %d gets", id, n-gets[i])
				}
			}
		})
	}
}

// TestOpenBreakerDefersShard pins breaker deferral on rs(2,1) blobs:
// page 0's home provider is healed but behind an open breaker. With
// another slot's provider down, its stripe cannot be decoded without
// the home shard, so the read asks for it. With every other slot up,
// the home provider is not asked. Hedging is off, so no straggling shard
// fetch sends a stripe to reconstruction early.
func TestOpenBreakerDefersShard(t *testing.T) {
	for _, tt := range []struct {
		name      string
		downOther bool
	}{
		{"other slot down", true},
		{"other slots up", false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cl, c := launch(t, cluster.Config{
				DataProviders: 3, MetaProviders: 3,
				Redundancy: erasure.Redundancy{K: 2, M: 1},
			}, unhedged)
			ctx := context.Background()
			b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(23, 8*pageSize)
			v, err := b.Write(ctx, data, 0)
			if err != nil {
				t.Fatal(err)
			}
			leaves, err := b.ReadMeta(ctx, 0, pageSize, v)
			if err != nil {
				t.Fatal(err)
			}
			slots := leaves[0].Leaf.Stripe.Provs
			home := slots[0]

			gets := cl.DataServices[home-1].GetLatency.Count()
			openBreaker(t, c, home)
			if tt.downOther {
				cl.DataServers[slots[1]-1].Close()
			}
			readWithin(t, b, v, data)
			if tt.downOther {
				return
			}
			if n := cl.DataServices[home-1].GetLatency.Count(); n != gets {
				t.Errorf("home provider %d behind an open breaker served %d gets", home, n-gets)
			}
		})
	}
}
