package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"blob/internal/netsim"
	"blob/internal/rpc"
)

// TestWaitHedgedFollowsPoolLatency: a fetch's hedge delay is read from
// the latency estimate the client's pool keeps for the address, so the
// calls the pool carries — any call to that address, not only page
// fetches — decide when waitHedged gives up on a fetch. Until an
// address has hedgeMinSamples samples the delay is the cold default.
func TestWaitHedgedFollowsPoolLatency(t *testing.T) {
	const mServe, mSeed = 1, 2
	const serve = 100 * time.Millisecond
	n := netsim.New(netsim.Fast())
	defer n.Close()
	// mSeed answers at once on the fast peer and after 4*serve on the
	// slow one; mServe answers after serve on both.
	for h, seed := range map[string]time.Duration{"fast": 0, "slow": 4 * serve} {
		s := rpc.NewServer()
		s.Handle(mServe, func(context.Context, []byte) ([]byte, error) {
			time.Sleep(serve)
			return nil, nil
		})
		s.Handle(mSeed, func(context.Context, []byte) ([]byte, error) {
			time.Sleep(seed)
			return nil, nil
		})
		l, err := n.Host(h).Listen("rpc")
		if err != nil {
			t.Fatal(err)
		}
		s.Start(l)
		defer s.Close()
	}
	pool := rpc.NewPool(n.Host("cli"))
	defer pool.Close()
	b := &Blob{c: &Client{pool: pool}}

	ctx := context.Background()
	for i := 0; i < hedgeMinSamples; i++ {
		for _, addr := range []string{"fast:rpc", "slow:rpc"} {
			if d := b.c.hedgeDelay(addr); d != hedgeDefaultDelay {
				t.Fatalf("%s after %d samples: hedge delay %v, want the cold %v", addr, i, d, hedgeDefaultDelay)
			}
			if _, err := pool.Call(ctx, addr, mSeed, nil); err != nil {
				t.Fatalf("%s: seed call: %v", addr, err)
			}
		}
	}
	if d := b.c.hedgeDelay("fast:rpc"); d != hedgeMinDelay {
		t.Errorf("fast peer: hedge delay %v, want the %v floor", d, hedgeMinDelay)
	}
	if d := b.c.hedgeDelay("slow:rpc"); d < 4*serve || d > hedgeMaxDelay {
		t.Errorf("slow peer: hedge delay %v, want in [%v, %v]", d, 4*serve, hedgeMaxDelay)
	}

	// A fetch served in 100ms outlives the fast peer's delay and not the
	// slow peer's.
	for _, tc := range []struct {
		addr string
		want error
	}{{"fast:rpc", errHedged}, {"slow:rpc", nil}} {
		start := time.Now()
		pd := pool.Go(ctx, tc.addr, mServe, nil, nil)
		if err := b.waitHedged(ctx, pd, tc.addr, start); !errors.Is(err, tc.want) {
			t.Errorf("%s: waitHedged on a %v fetch = %v, want %v", tc.addr, serve, err, tc.want)
		}
		if _, err := pd.Wait(ctx); err != nil {
			t.Fatalf("%s: fetch: %v", tc.addr, err)
		}
		pd.Release()
	}
}
