package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"blob/internal/netsim"
	"blob/internal/wire"
)

const (
	mEcho  = 1
	mAdd   = 2
	mFail  = 3
	mSlow  = 4
	mPanic = 5
)

// newTestServer starts a server with the standard test handlers over a
// fresh netsim fabric and returns a dial function and cleanup.
func newTestServer(t testing.TB, cfg netsim.Config) (*netsim.Net, string) {
	t.Helper()
	n := netsim.New(cfg)
	s := NewServer()
	s.Handle(mEcho, func(_ context.Context, body []byte) ([]byte, error) {
		return body, nil
	})
	s.Handle(mAdd, func(_ context.Context, body []byte) ([]byte, error) {
		r := wire.NewReader(body)
		a, b := r.Uint64(), r.Uint64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		w := wire.NewWriter(8)
		w.Uint64(a + b)
		return w.Bytes(), nil
	})
	s.Handle(mFail, func(_ context.Context, body []byte) ([]byte, error) {
		return nil, fmt.Errorf("deliberate failure: %s", body)
	})
	s.Handle(mSlow, func(ctx context.Context, body []byte) ([]byte, error) {
		select {
		case <-time.After(50 * time.Millisecond):
			return body, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	t.Cleanup(func() {
		s.Close()
		n.Close()
	})
	return n, "srv:rpc"
}

func dialTest(t testing.TB, n *netsim.Net, addr string) *Client {
	t.Helper()
	c, err := Dial(netDialer{n.Host("cli")}, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// netDialer adapts a netsim host to the rpc.Network interface.
type netDialer struct{ h *netsim.Host }

func (d netDialer) Dial(addr string) (net.Conn, error) { return d.h.Dial(addr) }

func TestEcho(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	msg := []byte("versioned blobs")
	got, err := c.Call(context.Background(), mEcho, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q, want %q", got, msg)
	}
}

func TestTypedCall(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	w := wire.NewWriter(16)
	w.Uint64(40)
	w.Uint64(2)
	got, err := c.Call(context.Background(), mAdd, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v := wire.NewReader(got).Uint64(); v != 42 {
		t.Errorf("add = %d, want 42", v)
	}
}

func TestServerErrorPropagates(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	_, err := c.Call(context.Background(), mFail, []byte("boom"))
	if err == nil {
		t.Fatal("expected error")
	}
	if !IsServerError(err) {
		t.Errorf("err = %v, want ServerError", err)
	}
	if want := "deliberate failure: boom"; err.Error() != want {
		t.Errorf("err = %q, want %q", err.Error(), want)
	}
}

func TestUnknownMethod(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	_, err := c.Call(context.Background(), 0xdead, nil)
	if err == nil || !IsServerError(err) {
		t.Fatalf("err = %v, want ServerError for unknown method", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("call-%d", i))
			got, err := c.Call(context.Background(), mEcho, msg)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("call %d: cross-talk %q", i, got)
			}
		}(i)
	}
	wg.Wait()
}

func TestAsyncCallsComplete(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	pend := make([]*Pending, 32)
	for i := range pend {
		pend[i] = c.Go(context.Background(), mEcho, [][]byte{[]byte{byte(i)}}, nil)
	}
	for i, p := range pend {
		got, err := p.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Errorf("async %d: got %d", i, got[0])
		}
	}
}

func TestContextCancellation(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, mSlow, []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	// Connection must still be usable for later calls.
	got, err := c.Call(context.Background(), mEcho, []byte("after"))
	if err != nil {
		t.Fatalf("post-cancel call failed: %v", err)
	}
	if string(got) != "after" {
		t.Errorf("post-cancel echo = %q", got)
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	p := c.Go(context.Background(), mSlow, [][]byte{[]byte("x")}, nil)
	time.Sleep(5 * time.Millisecond)
	// Closing the client should fail the pending call promptly.
	c.Close()
	_, err := p.Wait(context.Background())
	if err == nil {
		t.Fatal("pending call should fail on close")
	}
	if _, err := c.Call(context.Background(), mEcho, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("call after close = %v, want ErrClosed", err)
	}
}

func TestLargeBody(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	got, err := c.Call(context.Background(), mEcho, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Error("large body corrupted")
	}
}

func TestTooLargeRejectedLocally(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	huge := make([]byte, MaxBody+1)
	_, err := c.Call(context.Background(), mEcho, huge)
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestBatchingCoalescesMessages(t *testing.T) {
	// With latency, concurrent calls issued together should share frames.
	n, addr := newTestServer(t, netsim.Config{Latency: 2 * time.Millisecond})
	c := dialTest(t, n, addr)

	// Warm up the connection.
	if _, err := c.Call(context.Background(), mEcho, []byte("warm")); err != nil {
		t.Fatal(err)
	}

	framesBefore := M.FramesSent.Value()
	coaledBefore := M.MessagesCoaled.Value()

	const calls = 100
	pend := make([]*Pending, calls)
	for i := range pend {
		pend[i] = c.Go(context.Background(), mEcho, [][]byte{[]byte{byte(i)}}, nil)
	}
	for _, p := range pend {
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	frames := M.FramesSent.Value() - framesBefore
	coaled := M.MessagesCoaled.Value() - coaledBefore
	if coaled < calls {
		t.Fatalf("coalesced messages = %d, want >= %d", coaled, calls)
	}
	// 100 requests + 100 responses = 200 logical messages. Aggregation
	// should use far fewer physical frames.
	if frames >= coaled {
		t.Errorf("frames (%d) not fewer than messages (%d): batching inactive", frames, coaled)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	p := NewPool(netDialer{n.Host("cli")})
	defer p.Close()
	c1, err := p.get(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("pool dialed twice for the same address")
	}
}

func TestPoolRedialsAfterFailure(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	p := NewPool(netDialer{n.Host("cli")})
	defer p.Close()

	got, err := p.Call(context.Background(), addr, mEcho, []byte("one"))
	if err != nil || string(got) != "one" {
		t.Fatalf("first call: %q, %v", got, err)
	}
	// Break the cached connection behind the pool's back.
	c, _ := p.get(addr)
	c.Close()
	got, err = p.Call(context.Background(), addr, mEcho, []byte("two"))
	if err != nil || string(got) != "two" {
		t.Fatalf("post-failure call: %q, %v", got, err)
	}
}

func TestPoolDialErrorSurfaces(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	p := NewPool(netDialer{n.Host("cli")})
	defer p.Close()
	if _, err := p.Call(context.Background(), "nobody:1", mEcho, nil); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestPoolGoAsync(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	p := NewPool(netDialer{n.Host("cli")})
	defer p.Close()
	pd := p.Go(context.Background(), addr, mEcho, [][]byte{[]byte("async")}, nil)
	got, err := pd.Wait(context.Background())
	if err != nil || string(got) != "async" {
		t.Fatalf("async: %q, %v", got, err)
	}
}

func TestPoolClosedRefusesWork(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	p := NewPool(netDialer{n.Host("cli")})
	p.Close()
	if _, err := p.Call(context.Background(), addr, mEcho, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("call on closed pool = %v, want ErrClosed", err)
	}
}

func TestServerOverTCPLoopback(t *testing.T) {
	// The same stack must run over real TCP (deployment mode).
	s := NewServer()
	s.Handle(mEcho, func(_ context.Context, body []byte) ([]byte, error) {
		return body, nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP available: %v", err)
	}
	s.Start(l)
	defer s.Close()

	c, err := Dial(TCP{}, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Call(context.Background(), mEcho, []byte("tcp"))
	if err != nil || string(got) != "tcp" {
		t.Fatalf("tcp echo: %q, %v", got, err)
	}
}

func BenchmarkCallLatencyFastNet(b *testing.B) {
	n, addr := newTestServer(b, netsim.Fast())
	c := dialTest(b, n, addr)
	body := []byte("ping")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), mEcho, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchedFanout(b *testing.B) {
	n, addr := newTestServer(b, netsim.Config{Latency: 100 * time.Microsecond})
	c := dialTest(b, n, addr)
	body := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pend := make([]*Pending, 64)
		for j := range pend {
			pend[j] = c.Go(context.Background(), mEcho, [][]byte{body}, nil)
		}
		for _, p := range pend {
			if _, err := p.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
}
