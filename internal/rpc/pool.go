package rpc

import (
	"context"
	"errors"
	"sync"
	"time"

	"blob/internal/backoff"
	"blob/internal/trace"
)

// Pool maintains one multiplexed client connection per remote address,
// dialing lazily and transparently redialing after transport failures.
// Every component that talks to many peers (clients fanning out to data
// and metadata providers, the GC agent, the repair path in the version
// manager) shares this type.
//
// Everything the pool knows about one address is one peer record: the
// cached connection, the dial-failure burst, the circuit breaker and a
// Jacobson/Karels estimate of the peer's success latency. Every call the
// pool carries — Go, and Call and CallWith, which go through it — feeds
// its outcome and send-to-reply latency (from its request's write-out to
// its answer) to its peer's record when it completes, by itself: no
// caller reports anything. One mutex guards the
// records; each critical section is a map lookup and a few field
// updates, and no call completes while it is held.
//
// Failure handling is policy-driven (docs/robustness.md): transport
// failures retry under a jittered-exponential backoff bounded by a
// per-pool retry budget (so a cluster-wide outage cannot become a
// retry storm), and, once EnableBreakers is called, per-peer circuit
// breakers mark a persistently failing or crawling peer so routing
// layers ask it last (Available). A breaker never refuses a call.
type Pool struct {
	network Network

	mu     sync.Mutex
	peers  map[string]*peer
	closed bool

	// retry policy for transport failures; the budget is shared by all
	// peers of this pool.
	retry       backoff.Policy
	retryBudget *backoff.Budget

	// Set before the pool is shared (SetTracer, EnableBreakers).
	tracer   *trace.Tracer // receives dial-failure and breaker events
	breakOn  bool
	breakCfg breakerConfig
}

// peer is a pool's record of one address, guarded by Pool.mu. Records
// are never removed, so a *peer stays valid across unlocks.
type peer struct {
	c *Client // cached connection; nil until dialed and after Invalidate
	// dialFails counts consecutive failed dials; dialEmit is when the
	// last DialFailure event for them was emitted.
	dialFails int64
	dialEmit  time.Time
	// breaker holds the breaker state and the latency estimate; its
	// state changes only while the pool's breakers are enabled.
	breaker
}

// maxCallRetries bounds how many times one logical call is retried
// after transport failures (the first attempt is free).
const maxCallRetries = 2

// dialEventCooldown is the minimum spacing between dial-failure events
// for the same address: a variable only so that a test can shorten it.
var dialEventCooldown = 5 * time.Second

// NewPool returns an empty pool over the given network.
func NewPool(n Network) *Pool {
	return &Pool{
		network:     n,
		peers:       make(map[string]*peer),
		retryBudget: backoff.NewBudget(0.1, 10),
		breakCfg:    defaultBreaker,
	}
}

// SetTracer attaches the process's recorder as the pool's event sink:
// bursts of dial failures to one address emit a rate-limited
// trace.DialFailure, and breaker transitions emit trace.BreakerOpen /
// trace.BreakerClose. Call before the pool is shared.
func (p *Pool) SetTracer(t *trace.Tracer) { p.tracer = t }

// EnableBreakers turns on per-peer circuit breakers (tuned by
// defaultBreaker): every call's outcome feeds its peer's breaker, and
// Available reports the open ones. Latency estimates are kept either
// way. Call before the pool is shared.
func (p *Pool) EnableBreakers() { p.breakOn = true }

// peerLocked returns addr's record, creating it on first use; caller
// holds p.mu.
func (p *Pool) peerLocked(addr string) *peer {
	pr := p.peers[addr]
	if pr == nil {
		pr = &peer{breaker: breaker{cfg: p.breakCfg}}
		p.peers[addr] = pr
	}
	return pr
}

// Available reports whether addr should be asked in its turn — false
// only while addr's breaker is open. Routing layers use it to ask the
// peer last: after the other peers holding the data, never instead of
// them.
func (p *Pool) Available(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	pr := p.peers[addr]
	return pr == nil || pr.available()
}

// OpenBreakers returns the addresses whose breakers are currently open
// (for gauges and tests).
func (p *Pool) OpenBreakers() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var open []string
	for addr, pr := range p.peers {
		if !pr.available() {
			open = append(open, addr)
		}
	}
	return open
}

// Latency returns addr's success-latency estimate: the smoothed mean
// srtt, its deviation rttvar, and how many samples fed them (zero for a
// peer never heard from).
func (p *Pool) Latency(addr string) (srtt, rttvar time.Duration, samples int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pr := p.peers[addr]; pr != nil {
		return pr.rtt.srtt, pr.rtt.rttvar, pr.rtt.n
	}
	return 0, 0, 0
}

// drainBound is how long a detached call may take to complete before
// its peer record counts it as a timeout. An answer this late is
// indistinguishable from none at all; counting it is the one way a
// peer that stalls every call, so that no caller waits one out, still
// accumulates evidence.
const drainBound = time.Second

// record feeds the outcome of cl, a call the pool issued, into its
// peer's record, unless it has been fed already: at completion, or by
// drain's timeout, whichever comes first.
func (p *Pool) record(cl *call, err error, latency time.Duration) {
	if cl.recorded.CompareAndSwap(false, true) {
		p.observe(cl.addr, err, latency)
	}
}

// drain arms drainBound for cl, which its caller has detached: if cl has
// not completed by then, it is recorded as a timeout.
func (p *Pool) drain(cl *call) {
	select {
	case <-cl.done:
	default:
		time.AfterFunc(drainBound, func() { p.record(cl, context.DeadlineExceeded, drainBound) })
	}
}

// observe feeds one call outcome into addr's record: a success's
// latency into the estimate, and the outcome into the breaker when
// breakers are enabled. latency matters only for successes.
func (p *Pool) observe(addr string, err error, latency time.Duration) {
	if errors.Is(err, context.Canceled) {
		return // abandoned by the caller: not evidence
	}
	// Transport errors and blown deadlines are the peer's failures;
	// application errors prove the peer healthy.
	failure := err != nil && !IsServerError(err)
	var opened, closed bool
	p.mu.Lock()
	pr := p.peerLocked(addr)
	if p.breakOn {
		opened, closed = pr.record(failure, latency)
	} else if !failure {
		pr.rtt.observe(latency)
	}
	_, trips, errRate, srtt := pr.snapshot()
	p.mu.Unlock()
	if p.tracer == nil {
		return
	}
	if opened {
		p.tracer.Emit(trace.SevWarn, trace.BreakerOpen, trips,
			"peer %s: circuit breaker open (trip %d, err-rate %.2f, srtt %s)",
			addr, trips, errRate, srtt.Round(time.Millisecond))
	} else if closed {
		p.tracer.Emit(trace.SevInfo, trace.BreakerClose, trips,
			"peer %s: circuit breaker closed", addr)
	}
}

// get returns a live client for addr, dialing if necessary.
func (p *Pool) get(addr string) (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	pr := p.peerLocked(addr)
	if c := pr.c; c != nil && !c.Closed() {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()

	// Dial outside the lock; racing dials are harmless (loser is closed).
	c, err := Dial(p.network, addr)
	p.mu.Lock()
	if err != nil {
		pr.dialFails++
		fails := pr.dialFails
		emit := time.Since(pr.dialEmit) >= dialEventCooldown
		if emit {
			pr.dialEmit = time.Now()
		}
		p.mu.Unlock()
		if emit && p.tracer != nil {
			p.tracer.Emit(trace.SevWarn, trace.DialFailure, fails,
				"dial %s failing (%d consecutive): %v", addr, fails, err)
		}
		return nil, err
	}
	pr.dialFails, pr.dialEmit = 0, time.Time{}
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if exist := pr.c; exist != nil && !exist.Closed() {
		p.mu.Unlock()
		c.Close()
		return exist, nil
	}
	pr.c = c
	p.mu.Unlock()
	return c, nil
}

// Invalidate drops the cached connection for addr, closing it.
func (p *Pool) Invalidate(addr string) {
	p.mu.Lock()
	var c *Client
	if pr := p.peers[addr]; pr != nil {
		c, pr.c = pr.c, nil
	}
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Call performs a synchronous RPC to addr. A transport failure is
// retried up to maxCallRetries times, with backoff between attempts and
// within the pool's retry budget; each attempt is issued through Go, so
// each feeds the peer's record. Application errors (ServerError) are
// returned as-is and never retried — re-asking the same node is futile.
func (p *Pool) Call(ctx context.Context, addr string, method uint32, body []byte) ([]byte, error) {
	_, resp, err := p.call(ctx, addr, method, body)
	return resp, err
}

// CallWith performs a synchronous RPC with Call's retry semantics,
// hands the response to decode, and then releases the pooled response
// buffer. decode must not retain the body (or any sub-slice of it)
// past its return — copy what it keeps. This is the hot-path shape:
// callers get pooled-buffer reuse without giving up transparent
// retries. A decode error is not retried: the response arrived, so
// re-asking would return the same bytes.
func (p *Pool) CallWith(ctx context.Context, addr string, method uint32, body []byte, decode func([]byte) error) error {
	pd, resp, err := p.call(ctx, addr, method, body)
	if err != nil {
		return err
	}
	err = decode(resp)
	pd.Release()
	return err
}

// call runs Call's attempts and returns the answered one.
func (p *Pool) call(ctx context.Context, addr string, method uint32, body []byte) (*Pending, []byte, error) {
	for attempt := 0; ; attempt++ {
		pd := p.Go(ctx, addr, method, [][]byte{body}, nil)
		resp, err := pd.Wait(ctx)
		if err == nil {
			p.retryBudget.Success()
			return pd, resp, nil
		}
		if IsServerError(err) || ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
			return nil, nil, err
		}
		// Transport failure: the cached connection is dead.
		p.Invalidate(addr)
		if attempt >= maxCallRetries || !p.retryBudget.Allow() {
			return nil, nil, err
		}
		if p.retry.Sleep(ctx, attempt) != nil {
			return nil, nil, err
		}
	}
}

// Go starts an asynchronous scatter-gather call to addr (see Client.Go
// for the segment aliasing rules, the sink and what is taken from ctx).
// A warm address enqueues on the cached connection immediately; a cold
// one dials in the background, so a fan-out wave that touches a new
// provider is never serialized behind that one dial on the calling
// goroutine, and dial errors surface through the returned Pending's
// Wait. The dial goroutine issues the same call, sink included, on the
// new connection, so a Detach made while the dial is in flight holds.
// The call feeds addr's record by itself, once: its outcome and its
// send-to-reply latency when it completes, or a timeout when it is
// detached and still incomplete at drainBound.
func (p *Pool) Go(ctx context.Context, addr string, method uint32, segs [][]byte, sink Sink) *Pending {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return &Pending{c: &call{err: ErrClosed, done: closedChan}}
	}
	var c *Client
	if pr := p.peers[addr]; pr != nil {
		c = pr.c
	}
	p.mu.Unlock()
	cl := newCall(method, segs, sink)
	cl.pool, cl.addr = p, addr
	if c != nil && !c.Closed() {
		c.issue(ctx, cl)
	} else {
		go func() {
			c, err := p.get(addr)
			if err != nil {
				cl.complete(err)
				return
			}
			c.issue(ctx, cl)
		}()
	}
	return &Pending{c: cl}
}

// Close closes every pooled connection.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	var cs []*Client
	for _, pr := range p.peers {
		if pr.c != nil {
			cs = append(cs, pr.c)
			pr.c = nil
		}
	}
	p.mu.Unlock()
	for _, c := range cs {
		c.Close()
	}
}
