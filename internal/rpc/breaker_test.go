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
	p.breakMu.Lock()
	p.breakCfg = cfg
	p.breakMu.Unlock()
}

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
	if b.allow() {
		t.Fatal("open breaker admitted a call immediately")
	}
}

func TestBreakerHalfOpenProbeAndClose(t *testing.T) {
	cfg := defaultBreaker
	cfg.consecFails, cfg.openFor, cfg.probeEvery = 1, 20*time.Millisecond, 10*time.Millisecond
	b := newBreaker(cfg)
	b.record(true, 0) // trip
	if b.allow() {
		t.Fatal("admitted during open window")
	}
	time.Sleep(25 * time.Millisecond)
	if !b.allow() {
		t.Fatal("no probe admitted after OpenFor elapsed")
	}
	// Second call inside ProbeEvery must be denied (single probe).
	if b.allow() {
		t.Fatal("second probe admitted before ProbeEvery elapsed")
	}
	_, closed := b.record(false, time.Millisecond)
	if !closed {
		t.Fatal("successful probe did not close the breaker")
	}
	if !b.allow() {
		t.Fatal("closed breaker denied a call")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	cfg := defaultBreaker
	cfg.consecFails, cfg.openFor = 1, 10*time.Millisecond
	b := newBreaker(cfg)
	b.record(true, 0)
	time.Sleep(15 * time.Millisecond)
	if !b.allow() {
		t.Fatal("no probe admitted")
	}
	if opened, _ := b.record(true, 0); !opened {
		t.Fatal("failed probe did not reopen")
	}
	if b.allow() {
		t.Fatal("reopened breaker admitted a call")
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

// TestPoolBreakerFailsFastAndRecovers runs the full loop against a real
// server: kill it, watch the breaker open (with a journal event), renew
// it, watch a probe close the breaker (with a journal event).
func TestPoolBreakerFailsFastAndRecovers(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	newServer := func() *Server {
		s := NewServer()
		s.Handle(mEcho, func(_ context.Context, body []byte) ([]byte, error) { return body, nil })
		l, err := n.Host("srv").Listen("rpc")
		if err != nil {
			t.Fatal(err)
		}
		s.Start(l)
		return s
	}
	s := newServer()

	j := trace.New("cli", 0)
	p := NewPool(netDialer{n.Host("cli")})
	defer p.Close()
	p.SetTracer(j)
	cfg := defaultBreaker
	cfg.consecFails, cfg.openFor, cfg.probeEvery = 3, 30*time.Millisecond, 10*time.Millisecond
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
	if _, err := p.Call(ctx, "srv:rpc", mEcho, []byte("x")); err == nil {
		t.Fatal("call to dead open peer succeeded")
	}
	if len(p.OpenBreakers()) != 1 {
		t.Fatalf("OpenBreakers = %v, want [srv:rpc]", p.OpenBreakers())
	}

	// Revive the server: a half-open probe must close the breaker.
	s = newServer()
	defer s.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := p.Call(ctx, "srv:rpc", mEcho, []byte("probe")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after server revival")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !p.Available("srv:rpc") {
		t.Fatal("recovered peer still unavailable")
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

// TestPoolBreakerOpenError pins the fast-fail error for routing layers.
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
	_, err := p.Call(ctx, "ghost:rpc", mEcho, nil)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
}
