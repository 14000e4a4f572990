package rpc

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by pool calls to a peer whose circuit
// breaker is open: recent traffic to that peer failed or crawled, so
// new calls fail fast instead of queueing behind a browning-out node.
// Routing layers treat it like a missing replica — try the next one.
var ErrBreakerOpen = errors.New("rpc: peer circuit breaker open")

// Breaker states, in transition order.
const (
	breakerClosed   = iota // normal operation
	breakerOpen            // failing fast; no traffic except scheduled probes
	breakerHalfOpen        // probing: limited traffic decides open vs closed
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
	// openFor is how long the breaker stays open before the first
	// half-open probe.
	openFor time.Duration
	// probeEvery spaces half-open probes, so an unhealed peer sees a
	// trickle of traffic rather than a thundering herd.
	probeEvery time.Duration
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
	probeEvery:  250 * time.Millisecond,
}

// ewmaAlpha weights each new observation in the error-rate and latency
// EWMAs: high enough that ~10 bad calls dominate the history, low
// enough that one blip does not trip anything.
const ewmaAlpha = 0.2

// breaker is one peer's circuit breaker. All methods are safe for
// concurrent use.
type breaker struct {
	cfg breakerConfig

	mu        sync.Mutex
	state     int
	errEWMA   float64       // failure rate, 0..1
	latEWMA   time.Duration // success latency
	samples   int
	consec    int       // consecutive failures
	openedAt  time.Time // state == breakerOpen
	lastProbe time.Time // state == breakerHalfOpen
	trips     int64
}

func newBreaker(cfg breakerConfig) *breaker {
	return &breaker{cfg: cfg}
}

// allow reports whether a call to this peer may proceed right now.
// Open breakers deny until openFor has elapsed, then admit one probe
// per probeEvery via the half-open state.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cfg.openFor {
			return false
		}
		b.state = breakerHalfOpen
		b.lastProbe = now
		return true
	default: // breakerHalfOpen
		if now.Sub(b.lastProbe) < b.cfg.probeEvery {
			return false
		}
		b.lastProbe = now
		return true
	}
}

// available reports whether routing should consider this peer at all —
// like allow, but without consuming a probe slot.
func (b *breaker) available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return true
	}
	return time.Since(b.openedAt) >= b.cfg.openFor
}

// record folds one call outcome in and returns the state transition it
// caused: opened (closed/half-open → open) or closed (half-open →
// closed). failure should be true for transport errors and blown
// deadlines — not application errors, which prove the peer healthy.
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

	switch b.state {
	case breakerHalfOpen:
		if failure {
			b.trip()
			return true, false
		}
		return b.probeSucceeded()
	case breakerOpen:
		// Async callers (Pool.Go) never pass through allow, so their
		// outcomes reach an open breaker directly. Once openFor has
		// elapsed, routing re-admits the peer (available) and these
		// observations are its probes: a success closes the breaker, a
		// failure re-arms the open window.
		if time.Since(b.openedAt) < b.cfg.openFor {
			return false, false
		}
		if failure {
			b.trip()
			return false, false // still open: no new transition to record
		}
		return b.probeSucceeded()
	case breakerClosed:
		tripNow := b.consec >= b.cfg.consecFails ||
			(b.samples >= b.cfg.minSamples && b.errEWMA > b.cfg.errRate) ||
			(b.samples >= b.cfg.minSamples && b.latEWMA > b.cfg.latencyTrip)
		if tripNow {
			b.trip()
			return true, false
		}
	}
	return false, false
}

// probeSucceeded closes the breaker after a healthy probe and resets
// the history that tripped it; latency keeps its reading so a
// still-slow peer re-trips quickly. Caller holds b.mu.
func (b *breaker) probeSucceeded() (opened, closed bool) {
	b.state = breakerClosed
	b.errEWMA, b.samples, b.consec = 0, 0, 0
	if b.latEWMA > b.cfg.latencyTrip {
		b.trip()
		return true, true // closed and immediately re-opened
	}
	return false, true
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
