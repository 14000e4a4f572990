// Package throttle provides the token-bucket rate limiter that meters
// background I/O against foreground traffic. Two subsystems share it:
// the diskstore's segment compactor (Options.CompactRateBytes) and the
// data providers' repair page pulls (blobnode -repair-rate) —
// both are bulk maintenance flows that must never starve client reads
// and writes, and both meter in bytes.
//
// The bucket uses a debt-repayment model: Reserve always succeeds
// immediately and may drive the balance negative (a single charge can
// exceed the burst), returning how long the caller must sleep before
// doing more I/O. That keeps accounting exact even when charges arrive
// after the I/O they cover — post-paying lets a caller sleep outside
// whatever lock the I/O was performed under.
package throttle

import (
	"sync"
	"time"
)

// TokenBucket meters I/O in tokens (bytes). Tokens refill continuously
// at Rate per second up to one second of burst. The zero value is not
// usable; construct with New.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // test hook
}

// New creates a bucket refilling rate bytes/sec with one second of
// burst, starting full.
func New(rate int64) *TokenBucket {
	b := &TokenBucket{rate: float64(rate), burst: float64(rate), now: time.Now}
	b.tokens = b.burst
	b.last = b.now()
	return b
}

// SetClock replaces the bucket's time source (tests only).
func (b *TokenBucket) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.last = now()
	b.mu.Unlock()
}

// SetBurst overrides the burst capacity (default: one second of rate),
// clamping the current balance to it. A tiny burst makes every charge
// create debt — tests use it to force deterministic throttling.
func (b *TokenBucket) SetBurst(n int64) {
	b.mu.Lock()
	b.burst = float64(n)
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// Reserve consumes n tokens and returns how long the caller must wait
// for the balance to return to zero (0 when the bucket covers n).
func (b *TokenBucket) Reserve(n int64) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// Wait charges n tokens and sleeps off any debt, returning early with
// false if stop closes during the wait (so a throttled background task
// never delays shutdown). A nil stop channel just sleeps.
func (b *TokenBucket) Wait(n int64, stop <-chan struct{}) bool {
	d := b.Reserve(n)
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
