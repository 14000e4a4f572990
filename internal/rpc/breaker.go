package rpc

import (
	"sync"
	"time"
)

// Breaker states. A breaker never refuses a call: an open breaker only
// tells routing layers to ask its peer last (Pool.Available).
const (
	breakerClosed = iota // normal operation
	breakerOpen          // recent calls failed or crawled: ask this peer last
)

// breakerConfig tunes a per-peer circuit breaker (see
// docs/robustness.md for the state machine).
type breakerConfig struct {
	// errRate trips the breaker when the error-rate EWMA exceeds it
	// with at least minSamples observations folded in.
	errRate float64
	// minSamples gates both EWMA trips.
	minSamples int
	// consecFails trips the breaker outright after this many
	// consecutive failures, regardless of the EWMA.
	consecFails int
	// latencyTrip trips the breaker once the success latency EWMA
	// exceeds it: the gray-failure case where a peer answers
	// everything, slowly.
	latencyTrip time.Duration
	// openFor is how long an open breaker ignores outcomes; the first
	// success after it closes the breaker, a failure re-arms it.
	openFor time.Duration
}

// defaultBreaker is the tuning of every pool's breakers.
var defaultBreaker = breakerConfig{
	errRate:     0.5,
	minSamples:  8,
	consecFails: 5,
	// Error rate alone never sees the provider that answers everything,
	// slowly. 250ms of sustained success latency is far beyond any
	// healthy page fetch and comfortably below the multi-second stalls
	// the chaos harness injects.
	latencyTrip: 250 * time.Millisecond,
	openFor:     500 * time.Millisecond,
}

// ewmaAlpha weights each new observation in the error-rate and latency
// EWMAs: high enough that ~10 bad calls dominate the history, low
// enough that one blip does not trip anything.
const ewmaAlpha = 0.2

// breaker is one peer's circuit breaker. All methods are safe for
// concurrent use.
type breaker struct {
	cfg breakerConfig

	mu       sync.Mutex
	state    int
	errEWMA  float64       // failure rate, 0..1
	latEWMA  time.Duration // success latency
	samples  int
	consec   int       // consecutive failures
	openedAt time.Time // state == breakerOpen
	trips    int64
}

func newBreaker(cfg breakerConfig) *breaker {
	return &breaker{cfg: cfg}
}

// available reports whether routing should ask this peer in its turn:
// false only inside an open breaker's openFor window.
func (b *breaker) available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return true
	}
	return time.Since(b.openedAt) >= b.cfg.openFor
}

// record folds one call outcome in and returns the state transition it
// caused: opened (closed → open) or closed (open → closed). An open
// breaker ignores outcomes for openFor; after that its peer is asked in
// its turn again, and the next outcome decides: a success closes the
// breaker, a failure re-arms the window. failure should be true for
// transport errors and blown deadlines — not application errors, which
// prove the peer healthy.
func (b *breaker) record(failure bool, latency time.Duration) (opened, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.samples++
	if failure {
		b.consec++
		b.errEWMA += ewmaAlpha * (1 - b.errEWMA)
	} else {
		b.consec = 0
		b.errEWMA *= 1 - ewmaAlpha
		if latency > 0 {
			if b.latEWMA == 0 {
				b.latEWMA = latency
			} else {
				b.latEWMA += time.Duration(ewmaAlpha * float64(latency-b.latEWMA))
			}
		}
	}

	if b.state == breakerOpen {
		if time.Since(b.openedAt) < b.cfg.openFor {
			return false, false
		}
		if failure {
			b.trip()
			return false, false // still open: no new transition to record
		}
		// Close and reset the history that tripped the breaker; latency
		// keeps its reading so a still-slow peer re-trips at once.
		b.state = breakerClosed
		b.errEWMA, b.samples, b.consec = 0, 0, 0
		if b.latEWMA > b.cfg.latencyTrip {
			b.trip()
			return true, true // closed and immediately re-opened
		}
		return false, true
	}
	if b.consec >= b.cfg.consecFails ||
		(b.samples >= b.cfg.minSamples && b.errEWMA > b.cfg.errRate) ||
		(b.samples >= b.cfg.minSamples && b.latEWMA > b.cfg.latencyTrip) {
		b.trip()
		return true, false
	}
	return false, false
}

// trip moves to open; caller holds b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = time.Now()
	b.trips++
}

// snapshot returns the state and trip count for gauges and tests.
func (b *breaker) snapshot() (state int, trips int64, errRate float64, lat time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips, b.errEWMA, b.latEWMA
}
