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
			if _, err := p.get("ghost:rpc"); err == nil {
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

// rejectAnswer is a sink that refuses every answer, as a reader refuses
// one that does not parse: its call fails, and counts as its peer
// failing.
type rejectAnswer struct{}

func (rejectAnswer) ReadBody(*Body) error { return errors.New("injected: answer does not parse") }

// TestPoolConcurrentPeerRecord drives one pool's shared peer records
// from every entry point at once — Go, Call, calls whose answers are
// refused, Available and Invalidate on the same addresses, one of them
// dead — and closes the pool under them. Run with -race: the records
// have one lock.
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
					pd := p.Go(ctx, addr, mEcho, [][]byte{[]byte("go")}, nil)
					if _, err := pd.Wait(ctx); err == nil {
						pd.Release()
					}
				case 1:
					p.Call(ctx, addr, mEcho, []byte("call"))
				case 2:
					p.Go(ctx, addr, mEcho, [][]byte{[]byte("bad")}, rejectAnswer{}).Wait(ctx)
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

// outcomes returns how many outcomes addr's record has folded in, and
// how many of them were successes.
func (p *Pool) outcomes(addr string) (all, ok int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pr := p.peers[addr]; pr != nil {
		return pr.samples, pr.rtt.n
	}
	return 0, 0
}

// TestDetachedCallRecordedOnce pins what a detached pooled call feeds
// its peer record: one outcome. A call that answers after its Detach is
// recorded when it answers; one still unanswered at drainBound is
// recorded as a timeout then, and not again when it finally completes.
func TestDetachedCallRecordedOnce(t *testing.T) {
	const mHold = 1
	n := netsim.New(netsim.Fast())
	defer n.Close()
	release := map[string]chan struct{}{"late": make(chan struct{}), "mute": make(chan struct{})}
	for host, ch := range release {
		s := NewServer()
		s.Handle(mHold, func(context.Context, []byte) ([]byte, error) {
			<-ch
			return []byte("late"), nil
		})
		l, err := n.Host(host).Listen("rpc")
		if err != nil {
			t.Fatal(err)
		}
		s.Start(l)
		defer s.Close()
	}
	p := NewPool(netDialer{n.Host("cli")})
	defer p.Close()
	p.EnableBreakers()
	want := func(when, addr string, all, ok int) {
		t.Helper()
		if gotAll, gotOK := p.outcomes(addr); gotAll != all || gotOK != ok {
			t.Fatalf("%s: %s recorded %d outcomes (%d successes), want %d (%d)", when, addr, gotAll, gotOK, all, ok)
		}
	}

	ctx := context.Background()
	late := p.Go(ctx, "late:rpc", mHold, nil, nil)
	mute := p.Go(ctx, "mute:rpc", mHold, nil, nil)
	late.Detach()
	mute.Detach()
	time.Sleep(50 * time.Millisecond)
	want("both unanswered", "late:rpc", 0, 0)
	want("both unanswered", "mute:rpc", 0, 0)

	close(release["late"])
	<-late.Done()
	want("late answer in", "late:rpc", 1, 1)

	time.Sleep(drainBound)
	want("past the drain bound", "late:rpc", 1, 1)
	want("past the drain bound", "mute:rpc", 1, 0)

	close(release["mute"])
	if _, err := mute.Wait(ctx); err != nil {
		t.Fatalf("mute call: %v", err)
	}
	want("mute answer in", "mute:rpc", 1, 0)
}

// BenchmarkPoolFanout prices a pool's per-call bookkeeping: one
// iteration is a 64-call fan-out through Pool.Go to one warm peer over
// netsim, then the 64 Waits.
func BenchmarkPoolFanout(b *testing.B) {
	n, addr := newTestServer(b, netsim.Fast())
	p := NewPool(netDialer{n.Host("cli")})
	defer p.Close()
	p.EnableBreakers()
	ctx := context.Background()
	if _, err := p.Call(ctx, addr, mEcho, nil); err != nil {
		b.Fatal(err)
	}
	body := [][]byte{make([]byte, 128)}
	pend := make([]*Pending, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pend {
			pend[j] = p.Go(ctx, addr, mEcho, body, nil)
		}
		for _, pd := range pend {
			if _, err := pd.Wait(ctx); err != nil {
				b.Fatal(err)
			}
			pd.Release()
		}
	}
}
