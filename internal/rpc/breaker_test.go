package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"blob/internal/netsim"
	"blob/internal/trace"
)

// enableBreakersWith turns on the pool's breakers with cfg in place of
// defaultBreaker, so tests can shrink the windows.
func (p *Pool) enableBreakersWith(cfg breakerConfig) {
	p.EnableBreakers()
	p.breakCfg = cfg
}

func newBreaker(cfg breakerConfig) *breaker { return &breaker{cfg: cfg} }

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	cfg := defaultBreaker
	cfg.consecFails = 3
	b := newBreaker(cfg)
	for i := 0; i < 2; i++ {
		if opened, _ := b.record(true, 0); opened {
			t.Fatalf("opened after %d failures, want 3", i+1)
		}
	}
	opened, _ := b.record(true, 0)
	if !opened {
		t.Fatal("did not open after 3 consecutive failures")
	}
	if b.available() {
		t.Fatal("open breaker reported available immediately")
	}
}

// TestBreakerClosesOnFirstSuccessAfterWindow: outcomes inside the open
// window change nothing; the first success after it closes the breaker.
func TestBreakerClosesOnFirstSuccessAfterWindow(t *testing.T) {
	cfg := defaultBreaker
	cfg.consecFails, cfg.openFor = 1, 20*time.Millisecond
	b := newBreaker(cfg)
	b.record(true, 0) // trip
	if _, closed := b.record(false, time.Millisecond); closed || b.available() {
		t.Fatal("a success inside the open window closed the breaker")
	}
	time.Sleep(25 * time.Millisecond)
	if !b.available() {
		t.Fatal("breaker still unavailable after openFor elapsed")
	}
	if _, closed := b.record(false, time.Millisecond); !closed {
		t.Fatal("first success after the window did not close the breaker")
	}
	if st, _, _, _ := b.snapshot(); st != breakerClosed || !b.available() {
		t.Fatalf("state %d after close, want closed and available", st)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	cfg := defaultBreaker
	cfg.consecFails, cfg.openFor = 1, 10*time.Millisecond
	b := newBreaker(cfg)
	b.record(true, 0)
	time.Sleep(15 * time.Millisecond)
	if !b.available() {
		t.Fatal("breaker still unavailable after openFor elapsed")
	}
	b.record(true, 0) // the first outcome after the window fails
	if _, trips, _, _ := b.snapshot(); trips != 2 {
		t.Fatalf("trips = %d after a failure past the window, want 2", trips)
	}
	if b.available() {
		t.Fatal("re-armed breaker reported available")
	}
}

func TestBreakerLatencyEWMATrips(t *testing.T) {
	cfg := defaultBreaker
	cfg.latencyTrip, cfg.minSamples, cfg.consecFails, cfg.errRate = 10*time.Millisecond, 4, 1000, 2
	b := newBreaker(cfg)
	// Successful but consistently slow calls must trip the breaker —
	// the alive-yet-crawling gray failure replication cannot mask.
	tripped := false
	for i := 0; i < 20; i++ {
		if opened, _ := b.record(false, 100*time.Millisecond); opened {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("20 slow successes never tripped the latency breaker")
	}
}

// echoServer serves mEcho on host:rpc.
func echoServer(t *testing.T, n *netsim.Net, host string) *Server {
	t.Helper()
	s := NewServer()
	s.Handle(mEcho, func(_ context.Context, body []byte) ([]byte, error) { return body, nil })
	l, err := n.Host(host).Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	return s
}

// TestPoolBreakerRecoversOnFirstSuccess runs the full loop against a
// real server: kill it, watch the breaker open (with a journal event),
// renew it, and once the open window has passed the first call closes
// the breaker (with a journal event).
func TestPoolBreakerRecoversOnFirstSuccess(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	s := echoServer(t, n, "srv")

	j := trace.New("cli", 0)
	p := NewPool(netDialer{n.Host("cli")})
	defer p.Close()
	p.SetTracer(j)
	cfg := defaultBreaker
	cfg.consecFails, cfg.openFor = 3, 30*time.Millisecond
	p.enableBreakersWith(cfg)

	ctx := context.Background()
	if _, err := p.Call(ctx, "srv:rpc", mEcho, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if !p.Available("srv:rpc") {
		t.Fatal("healthy peer reported unavailable")
	}

	// Kill the server: calls fail until the breaker opens.
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for p.Available("srv:rpc") {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened against a dead peer")
		}
		p.Call(ctx, "srv:rpc", mEcho, []byte("x"))
	}
	if len(p.OpenBreakers()) != 1 {
		t.Fatalf("OpenBreakers = %v, want [srv:rpc]", p.OpenBreakers())
	}

	// Revive the server and let the open window pass: the first call
	// succeeds and closes the breaker.
	s = echoServer(t, n, "srv")
	defer s.Close()
	for !p.Available("srv:rpc") {
		if time.Now().After(deadline) {
			t.Fatal("breaker still unavailable after its window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := p.Call(ctx, "srv:rpc", mEcho, []byte("again")); err != nil {
		t.Fatalf("first call after the window: %v", err)
	}
	if open := p.OpenBreakers(); len(open) != 0 {
		t.Fatalf("breakers still open after a success past the window: %v", open)
	}

	var sawOpen, sawClose bool
	for _, e := range j.Events() {
		switch e.Type {
		case trace.BreakerOpen:
			sawOpen = true
		case trace.BreakerClose:
			sawClose = true
		}
	}
	if !sawOpen || !sawClose {
		t.Fatalf("journal missing breaker transitions: open=%v close=%v", sawOpen, sawClose)
	}
}

// TestPoolBreakerOpenError pins what a call to a peer whose breaker is
// open gets: the call is made, so the peer's own error comes back, and
// a peer that answers is answered from, open breaker or not.
func TestPoolBreakerOpenError(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	p := NewPool(netDialer{n.Host("cli")})
	defer p.Close()
	cfg := defaultBreaker
	cfg.consecFails, cfg.openFor = 1, time.Minute
	p.enableBreakersWith(cfg)

	ctx := context.Background()
	p.Call(ctx, "ghost:rpc", mEcho, nil) // dial failure trips instantly
	if p.Available("ghost:rpc") {
		t.Fatal("breaker did not open on a dial failure")
	}
	if _, err := p.Call(ctx, "ghost:rpc", mEcho, nil); !errors.Is(err, netsim.ErrRefused) {
		t.Fatalf("err = %v, want the dial's own %v", err, netsim.ErrRefused)
	}
	s := echoServer(t, n, "ghost")
	defer s.Close()
	resp, err := p.Call(ctx, "ghost:rpc", mEcho, []byte("hi"))
	if err != nil || string(resp) != "hi" {
		t.Fatalf("call to a live peer behind an open breaker = %q, %v", resp, err)
	}
	if p.Available("ghost:rpc") {
		t.Fatal("a success inside the open window closed the breaker")
	}
}
