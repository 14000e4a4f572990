// Package backoff is the repository's single retry policy: jittered
// exponential delays plus per-operation retry budgets. Every layer
// that retries — the rpc connection pool, the version-manager group
// client chasing a moving leader, the dht directory refresh — shares
// this package, so retry behaviour is tuned (and reasoned about) in
// one place.
//
// Two pieces compose:
//
//   - Policy computes how long to wait before attempt n: full-jitter
//     exponential backoff (delay drawn uniformly from [Base/2, d] where
//     d doubles each attempt up to Max), the scheme that best breaks
//     retry synchronization between many clients hammering one
//     recovering node.
//   - Budget bounds how much retrying a component may do overall: a
//     token bucket that earns a fraction of a token per successful
//     call and spends one per retry. When the budget is empty, retries
//     are denied and the original error surfaces immediately — a
//     cluster-wide failure then costs each client one attempt, not an
//     amplifying retry storm (the gray-failure literature's "retry
//     amplification" problem; see docs/robustness.md).
//
// The zero Policy and nil Budget are usable: Policy zero values fall
// back to the package defaults, and a nil *Budget always allows.
package backoff

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Package defaults, used for any zero Policy field.
const (
	DefaultBase = 2 * time.Millisecond
	DefaultMax  = 250 * time.Millisecond
)

// Policy describes a jittered exponential backoff curve whose ceiling
// doubles each attempt. The zero value uses the package defaults.
// Policies are immutable values — copy them freely.
type Policy struct {
	Base time.Duration // first-retry ceiling (default 2ms)
	Max  time.Duration // delay ceiling (default 250ms)
}

// ceiling returns the un-jittered delay ceiling for attempt n (0-based).
func (p Policy) ceiling(attempt int) time.Duration {
	d, limit := p.Base, p.Max
	if d <= 0 {
		d = DefaultBase
	}
	if limit <= 0 {
		limit = DefaultMax
	}
	for i := 0; i < attempt && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// Delay returns the randomized wait before retry attempt n (0-based):
// a uniform draw from [ceiling/2, ceiling] ("equal jitter"), so delays
// grow predictably but two clients that failed together do not retry
// together.
func (p Policy) Delay(attempt int) time.Duration {
	c := p.ceiling(attempt)
	half := c / 2
	if half <= 0 {
		return c
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Sleep blocks for Delay(attempt) or until ctx is done, returning
// ctx.Err() in the latter case. The common retry-loop shape:
//
//	for attempt := 0; ; attempt++ {
//		if err := op(); err == nil { return nil }
//		if err := policy.Sleep(ctx, attempt); err != nil { return err }
//	}
func (p Policy) Sleep(ctx context.Context, attempt int) error {
	t := time.NewTimer(p.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Budget is a retry token bucket shared by all operations of one
// component. Successful calls earn Rate tokens (capped at Burst);
// each retry spends one. With Rate = 0.1 a component may retry at
// most ~10% of its calls in steady state — enough to ride out
// isolated blips, too little to amplify a systemic outage.
//
// A nil *Budget always allows retries (opt-in semantics). Budget is
// safe for concurrent use.
type Budget struct {
	Rate  float64 // tokens earned per success (default 0.1)
	Burst float64 // bucket capacity (default 10)

	mu     sync.Mutex
	tokens float64
	primed bool
}

// NewBudget returns a budget that starts full.
func NewBudget(rate, burst float64) *Budget {
	if rate <= 0 {
		rate = 0.1
	}
	if burst <= 0 {
		burst = 10
	}
	return &Budget{Rate: rate, Burst: burst, tokens: burst, primed: true}
}

// prime lazily fills a zero-constructed budget so the zero value is
// usable (starts full with default rate/burst).
func (b *Budget) prime() {
	if b.primed {
		return
	}
	if b.Rate <= 0 {
		b.Rate = 0.1
	}
	if b.Burst <= 0 {
		b.Burst = 10
	}
	b.tokens = b.Burst
	b.primed = true
}

// Success credits one successful call's earnings to the bucket.
func (b *Budget) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.prime()
	b.tokens += b.Rate
	if b.tokens > b.Burst {
		b.tokens = b.Burst
	}
	b.mu.Unlock()
}

// Allow reports whether a retry may be spent, and spends it. A denied
// retry costs nothing.
func (b *Budget) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.prime()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Remaining returns the current token count (for tests and gauges).
func (b *Budget) Remaining() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.prime()
	return b.tokens
}
