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

// BreakerConfig tunes the per-peer circuit breakers a Pool maintains
// (see docs/robustness.md for the state machine). The zero value turns
// every knob into its listed default.
type BreakerConfig struct {
	// ErrRate trips the breaker when the error-rate EWMA exceeds it
	// with at least MinSamples observations folded in. Default 0.5.
	ErrRate float64
	// MinSamples gates both EWMA trips. Default 8.
	MinSamples int
	// ConsecFails trips the breaker outright after this many
	// consecutive failures, regardless of the EWMA. Default 5.
	ConsecFails int
	// LatencyTrip, when > 0, trips the breaker once the success
	// latency EWMA exceeds it — the gray-failure case where a peer
	// answers everything, slowly. Default 0 (disabled).
	LatencyTrip time.Duration
	// OpenFor is how long the breaker stays open before the first
	// half-open probe. Default 500ms.
	OpenFor time.Duration
	// ProbeEvery spaces half-open probes, so an unhealed peer sees a
	// trickle of traffic rather than a thundering herd. Default 250ms.
	ProbeEvery time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ErrRate <= 0 {
		c.ErrRate = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.ConsecFails <= 0 {
		c.ConsecFails = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 500 * time.Millisecond
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 250 * time.Millisecond
	}
	return c
}

// ewmaAlpha weights each new observation in the error-rate and latency
// EWMAs: high enough that ~10 bad calls dominate the history, low
// enough that one blip does not trip anything.
const ewmaAlpha = 0.2

// breaker is one peer's circuit breaker. All methods are safe for
// concurrent use.
type breaker struct {
	cfg BreakerConfig

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

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{cfg: cfg}
}

// allow reports whether a call to this peer may proceed right now.
// Open breakers deny until OpenFor has elapsed, then admit one probe
// per ProbeEvery via the half-open state.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.state = breakerHalfOpen
		b.lastProbe = now
		return true
	default: // breakerHalfOpen
		if now.Sub(b.lastProbe) < b.cfg.ProbeEvery {
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
	return time.Since(b.openedAt) >= b.cfg.OpenFor
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
		// outcomes reach an open breaker directly. Once OpenFor has
		// elapsed, routing re-admits the peer (available) and these
		// observations are its probes: a success closes the breaker, a
		// failure re-arms the open window.
		if time.Since(b.openedAt) < b.cfg.OpenFor {
			return false, false
		}
		if failure {
			b.trip()
			return false, false // still open: no new transition to record
		}
		return b.probeSucceeded()
	case breakerClosed:
		tripNow := b.consec >= b.cfg.ConsecFails ||
			(b.samples >= b.cfg.MinSamples && b.errEWMA > b.cfg.ErrRate) ||
			(b.cfg.LatencyTrip > 0 && b.samples >= b.cfg.MinSamples && b.latEWMA > b.cfg.LatencyTrip)
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
	if b.cfg.LatencyTrip > 0 && b.latEWMA > b.cfg.LatencyTrip {
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
