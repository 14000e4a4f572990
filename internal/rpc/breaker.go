package rpc

import "time"

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
	// minSamples gates both the error-rate and the latency trip.
	minSamples int
	// consecFails trips the breaker outright after this many
	// consecutive failures, regardless of the EWMA.
	consecFails int
	// latencyTrip trips the breaker once the peer's smoothed success
	// latency (srtt) exceeds it: the gray-failure case where a peer
	// answers everything, slowly.
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

// ewmaAlpha weights each new observation in the error-rate EWMA: high
// enough that ~10 bad calls dominate the history, low enough that one
// blip does not trip anything.
const ewmaAlpha = 0.2

// rttEstimate is a Jacobson/Karels estimate of one peer's success
// latency: srtt tracks the mean, rttvar the deviation (gains 1/8 and
// 1/4, the TCP RTO constants), so srtt + 4*rttvar approximates a high
// percentile (~p95+) of the peer's recent latency.
type rttEstimate struct {
	srtt, rttvar time.Duration
	n            int // samples folded in
}

// observe folds one successful call's latency in.
func (e *rttEstimate) observe(d time.Duration) {
	if e.n == 0 {
		e.srtt, e.rttvar = d, d/2
	} else {
		diff := d - e.srtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar += (diff - e.rttvar) / 4
		e.srtt += (d - e.srtt) / 8
	}
	e.n++
}

// breaker is one peer's circuit breaker, with the latency estimate its
// latency trip reads. It has no lock of its own: a pool's breakers are
// guarded by Pool.mu.
type breaker struct {
	cfg breakerConfig

	state    int
	errEWMA  float64 // failure rate, 0..1
	samples  int
	consec   int       // consecutive failures
	openedAt time.Time // state == breakerOpen
	trips    int64
	rtt      rttEstimate
}

// available reports whether routing should ask this peer in its turn:
// false only inside an open breaker's openFor window.
func (b *breaker) available() bool {
	return b.state != breakerOpen || time.Since(b.openedAt) >= b.cfg.openFor
}

// record folds one call outcome in and returns the state transition it
// caused: opened (closed → open) or closed (open → closed). A success
// feeds the latency estimate. An open breaker ignores outcomes for
// openFor; after that its peer is asked in its turn again, and the next
// outcome decides: a success closes the breaker, a failure re-arms the
// window. failure should be true for transport errors and blown
// deadlines — not application errors, which prove the peer healthy.
func (b *breaker) record(failure bool, latency time.Duration) (opened, closed bool) {
	b.samples++
	if failure {
		b.consec++
		b.errEWMA += ewmaAlpha * (1 - b.errEWMA)
	} else {
		b.consec = 0
		b.errEWMA *= 1 - ewmaAlpha
		b.rtt.observe(latency)
	}

	if b.state == breakerOpen {
		if time.Since(b.openedAt) < b.cfg.openFor {
			return false, false
		}
		if failure {
			b.trip()
			return false, false // still open: no new transition to record
		}
		// Close and reset the history that tripped the breaker; the
		// latency estimate keeps its reading so a still-slow peer
		// re-trips at once.
		b.state = breakerClosed
		b.errEWMA, b.samples, b.consec = 0, 0, 0
		if b.rtt.srtt > b.cfg.latencyTrip {
			b.trip()
			return true, true // closed and immediately re-opened
		}
		return false, true
	}
	if b.consec >= b.cfg.consecFails ||
		(b.samples >= b.cfg.minSamples && b.errEWMA > b.cfg.errRate) ||
		(b.samples >= b.cfg.minSamples && b.rtt.srtt > b.cfg.latencyTrip) {
		b.trip()
		return true, false
	}
	return false, false
}

// trip moves to open.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = time.Now()
	b.trips++
}

// snapshot returns the state and trip count for gauges and tests.
func (b *breaker) snapshot() (state int, trips int64, errRate float64, srtt time.Duration) {
	return b.state, b.trips, b.errEWMA, b.rtt.srtt
}
