package rpc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"blob/internal/netsim"
	"blob/internal/trace"
)

// TestPoolDialFailureEvents pins the dial-failure burst a peer record
// keeps: failed dials to one address emit one DialFailure event per
// dialEventCooldown, carrying the running count of consecutive
// failures, and a successful dial resets both the count and the
// cooldown.
func TestPoolDialFailureEvents(t *testing.T) {
	defer func(d time.Duration) { dialEventCooldown = d }(dialEventCooldown)
	dialEventCooldown = 50 * time.Millisecond
	n := netsim.New(netsim.Fast())
	defer n.Close()
	j := trace.New("cli", 0)
	p := NewPool(netDialer{n.Host("cli")})
	defer p.Close()
	p.SetTracer(j)

	var seen int
	// fresh returns the DialFailure events emitted since its last call.
	fresh := func() []trace.Event {
		var evs []trace.Event
		for _, e := range j.Events() {
			if e.Type == trace.DialFailure {
				evs = append(evs, e)
			}
		}
		evs, seen = evs[seen:], len(evs)
		return evs
	}
	fail := func(times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			if _, err := p.Get("ghost:rpc"); err == nil {
				t.Fatal("dial to an address nobody listens on succeeded")
			}
		}
	}
	wantOne := func(when string, count int64) {
		t.Helper()
		evs := fresh()
		if len(evs) != 1 || evs[0].Val != count {
			t.Fatalf("%s: DialFailure events %+v, want one carrying count %d", when, evs, count)
		}
	}

	fail(4)
	wantOne("four failures inside one cooldown", 1)
	time.Sleep(dialEventCooldown)
	fail(3)
	wantOne("three failures after the cooldown", 5)

	s := echoServer(t, n, "ghost")
	if _, err := p.Call(context.Background(), "ghost:rpc", mEcho, []byte("up")); err != nil {
		t.Fatalf("call to a live peer: %v", err)
	}
	s.Close()
	p.Invalidate("ghost:rpc")
	fail(2)
	wantOne("failures after a successful dial", 1)
}

// TestPoolConcurrentPeerRecord drives one pool's shared peer records
// from every entry point at once — Go, Call, Observe, Available and
// Invalidate on the same addresses, one of them dead — and closes the
// pool under them. Run with -race: the records have one lock.
func TestPoolConcurrentPeerRecord(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	for _, h := range []string{"a", "b"} {
		defer echoServer(t, n, h).Close()
	}
	p := NewPool(netDialer{n.Host("cli")})
	p.SetTracer(trace.New("cli", 0))
	p.EnableBreakers()
	addrs := []string{"a:rpc", "b:rpc", "ghost:rpc"}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const workers, rounds = 6, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				addr := addrs[(w+i)%len(addrs)]
				switch i % 5 {
				case 0:
					start := time.Now()
					pd := p.Go(ctx, addr, mEcho, [][]byte{[]byte("go")}, nil)
					_, err := pd.Wait(ctx)
					p.Observe(addr, err, time.Since(start))
					if err == nil {
						pd.Release()
					}
				case 1:
					p.Call(ctx, addr, mEcho, []byte("call"))
				case 2:
					p.Observe(addr, errors.New("injected"), 0)
				case 3:
					p.Available(addr)
					p.Latency(addr)
					p.OpenBreakers()
				case 4:
					p.Invalidate(addr)
				}
				if w == 0 && i == rounds/2 {
					p.Close()
				}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("pool calls did not finish: a Pending outlived Close")
	}
	if _, err := p.Call(ctx, "a:rpc", mEcho, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close = %v, want %v", err, ErrClosed)
	}
	for _, addr := range addrs[:2] {
		if _, _, samples := p.Latency(addr); samples == 0 {
			t.Errorf("%s: no latency sample from any success", addr)
		}
	}
}
