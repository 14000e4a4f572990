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
// Failure handling is policy-driven (docs/robustness.md): transport
// failures retry under a jittered-exponential backoff bounded by a
// per-pool retry budget (so a cluster-wide outage cannot become a
// retry storm), and per-peer circuit breakers mark a persistently
// failing or crawling peer so routing layers ask it last (Available).
// A breaker never refuses a call.
type Pool struct {
	network Network

	mu      sync.Mutex
	clients map[string]*Client
	closed  bool

	// retry policy for transport failures; the budget is shared by all
	// peers of this pool.
	retry       backoff.Policy
	retryBudget *backoff.Budget

	breakMu  sync.Mutex
	breakCfg breakerConfig
	breakOn  bool
	breakers map[string]*breaker

	tracer  *trace.Tracer // receives dial-failure and breaker events
	dialsMu sync.Mutex
	dials   map[string]*dialState
}

// maxCallRetries bounds how many times one logical call is retried
// after transport failures (the first attempt is free).
const maxCallRetries = 2

// dialState tracks consecutive dial failures to one address so the
// tracer records failure bursts, not every failed attempt.
type dialState struct {
	fails    int64
	lastEmit time.Time
}

// dialEventCooldown is the minimum spacing between dial-failure events
// for the same address.
const dialEventCooldown = 5 * time.Second

// NewPool returns an empty pool over the given network.
func NewPool(n Network) *Pool {
	return &Pool{
		network:     n,
		clients:     make(map[string]*Client),
		retryBudget: backoff.NewBudget(0.1, 10),
	}
}

// SetTracer attaches the process's recorder as the pool's event sink:
// bursts of dial failures to one address emit a rate-limited
// trace.DialFailure, and breaker transitions emit trace.BreakerOpen /
// trace.BreakerClose. Call before the pool is shared.
func (p *Pool) SetTracer(t *trace.Tracer) {
	p.dialsMu.Lock()
	p.tracer = t
	p.dials = make(map[string]*dialState)
	p.dialsMu.Unlock()
}

// EnableBreakers turns on per-peer circuit breakers (tuned by
// defaultBreaker): every call's outcome feeds its peer's breaker, and
// Available reports the open ones. Call before the pool is shared.
func (p *Pool) EnableBreakers() {
	p.breakMu.Lock()
	p.breakCfg = defaultBreaker
	p.breakOn = true
	p.breakers = make(map[string]*breaker)
	p.breakMu.Unlock()
}

// breakerFor returns addr's breaker, creating it on first use, or nil
// when breakers are disabled.
func (p *Pool) breakerFor(addr string) *breaker {
	p.breakMu.Lock()
	defer p.breakMu.Unlock()
	if !p.breakOn {
		return nil
	}
	b, ok := p.breakers[addr]
	if !ok {
		b = newBreaker(p.breakCfg)
		p.breakers[addr] = b
	}
	return b
}

// Available reports whether addr should be asked in its turn — false
// only while addr's breaker is open. Routing layers use it to ask the
// peer last: after the other peers holding the data, never instead of
// them.
func (p *Pool) Available(addr string) bool {
	p.breakMu.Lock()
	b := p.breakers[addr]
	p.breakMu.Unlock()
	return b == nil || b.available()
}

// OpenBreakers returns the addresses whose breakers are currently open
// (for gauges and tests).
func (p *Pool) OpenBreakers() []string {
	p.breakMu.Lock()
	defer p.breakMu.Unlock()
	var open []string
	for addr, b := range p.breakers {
		if !b.available() {
			open = append(open, addr)
		}
	}
	return open
}

// callFailure classifies err for breaker accounting: transport errors
// and blown deadlines are the peer's failures; application errors and
// caller-side cancellation are not.
func callFailure(err error) bool {
	return err != nil && !IsServerError(err) && !errors.Is(err, context.Canceled)
}

// Observe feeds one call outcome into addr's breaker — the hook for
// async callers (Go fan-outs) that wait on Pendings themselves and
// would otherwise bypass breaker accounting. latency matters only for
// successes. Safe to call with breakers disabled.
func (p *Pool) Observe(addr string, err error, latency time.Duration) {
	if errors.Is(err, context.Canceled) {
		return // abandoned by the caller: not evidence
	}
	br := p.breakerFor(addr)
	if br == nil {
		return
	}
	opened, closed := br.record(callFailure(err), latency)
	if opened || closed {
		p.emitBreaker(addr, br, opened)
	}
}

// emitBreaker emits breaker transition events.
func (p *Pool) emitBreaker(addr string, br *breaker, opened bool) {
	if p.tracer == nil {
		return
	}
	_, trips, errRate, lat := br.snapshot()
	if opened {
		p.tracer.Emit(trace.SevWarn, trace.BreakerOpen, trips,
			"peer %s: circuit breaker open (trip %d, err-rate %.2f, lat-ewma %s)",
			addr, trips, errRate, lat.Round(time.Millisecond))
	} else {
		p.tracer.Emit(trace.SevInfo, trace.BreakerClose, trips,
			"peer %s: circuit breaker closed", addr)
	}
}

// noteDial records a dial outcome for addr, emitting a DialFailure
// event when failures persist past the per-address cooldown.
func (p *Pool) noteDial(addr string, err error) {
	if p.tracer == nil {
		return
	}
	p.dialsMu.Lock()
	if err == nil {
		delete(p.dials, addr)
		p.dialsMu.Unlock()
		return
	}
	st := p.dials[addr]
	if st == nil {
		st = &dialState{}
		p.dials[addr] = st
	}
	st.fails++
	fails := st.fails
	emit := time.Since(st.lastEmit) >= dialEventCooldown
	if emit {
		st.lastEmit = time.Now()
	}
	p.dialsMu.Unlock()
	if emit {
		p.tracer.Emit(trace.SevWarn, trace.DialFailure, fails,
			"dial %s failing (%d consecutive): %v", addr, fails, err)
	}
}

// Get returns a live client for addr, dialing if necessary.
func (p *Pool) Get(addr string) (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := p.clients[addr]; ok && !c.Closed() {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()

	// Dial outside the lock; racing dials are harmless (loser is closed).
	c, err := Dial(p.network, addr)
	p.noteDial(addr, err)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if exist, ok := p.clients[addr]; ok && !exist.Closed() {
		p.mu.Unlock()
		c.Close()
		return exist, nil
	}
	p.clients[addr] = c
	p.mu.Unlock()
	return c, nil
}

// Invalidate drops the cached connection for addr, closing it.
func (p *Pool) Invalidate(addr string) {
	p.mu.Lock()
	c := p.clients[addr]
	delete(p.clients, addr)
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// do runs one logical call under the pool's failure policy: up to
// 1+maxCallRetries attempts with backoff between them, each attempt's
// outcome fed to the breaker. handle performs the call on the given
// client and reports (error, final); final short-circuits the retry
// loop (used for decode errors — the response arrived, so re-asking
// would return the same bytes).
func (p *Pool) do(ctx context.Context, addr string, handle func(*Client) (error, bool)) error {
	br := p.breakerFor(addr)
	var err error
	for attempt := 0; ; attempt++ {
		start := time.Now()
		var final bool
		var c *Client
		c, err = p.Get(addr)
		if err == nil {
			err, final = handle(c)
		}
		if br != nil && !errors.Is(err, context.Canceled) {
			if opened, closed := br.record(callFailure(err), time.Since(start)); opened || closed {
				p.emitBreaker(addr, br, opened)
			}
		}
		if err == nil {
			p.retryBudget.Success()
			return nil
		}
		if final || IsServerError(err) || ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		// Transport failure: the cached connection is dead.
		p.Invalidate(addr)
		if attempt >= maxCallRetries || !p.retryBudget.Allow() {
			return err
		}
		if p.retry.Sleep(ctx, attempt) != nil {
			return err
		}
	}
}

// Call performs a synchronous RPC to addr under the pool's retry
// policy, feeding each attempt's outcome to addr's breaker. Application
// errors (ServerError) are returned as-is and never retried — re-asking
// the same node is futile.
func (p *Pool) Call(ctx context.Context, addr string, method uint32, body []byte) ([]byte, error) {
	var resp []byte
	err := p.do(ctx, addr, func(c *Client) (error, bool) {
		b, err := c.Call(ctx, method, body)
		resp = b
		return err, false
	})
	return resp, err
}

// CallWith performs a synchronous RPC with Call's retry semantics,
// hands the response to decode, and then releases the pooled response
// buffer. decode must not retain the body (or any sub-slice of it)
// past its return — copy what it keeps. This is the hot-path shape:
// callers get pooled-buffer reuse without giving up transparent
// retries.
func (p *Pool) CallWith(ctx context.Context, addr string, method uint32, body []byte, decode func([]byte) error) error {
	return p.do(ctx, addr, func(c *Client) (error, bool) {
		pd := c.Go(ctx, method, [][]byte{body}, nil)
		resp, err := pd.Wait(ctx)
		if err != nil {
			return err, false
		}
		err = decode(resp)
		pd.Release()
		// The response arrived; a decode error is final.
		return err, true
	})
}

// Go starts an asynchronous scatter-gather call to addr (see Client.Go
// for the segment aliasing rules, the sink and what is taken from ctx).
// A warm address enqueues on the cached connection immediately; a cold
// one dials in the background, so a fan-out wave that touches a new
// provider is never serialized behind that one dial on the calling
// goroutine, and dial errors surface through the returned Pending's
// Wait. The dial goroutine issues the same call, sink included, on the
// new connection, so a Detach made while the dial is in flight holds.
// Async outcomes do not reach the breaker by themselves: callers feed
// them back via Observe.
func (p *Pool) Go(ctx context.Context, addr string, method uint32, segs [][]byte, sink Sink) *Pending {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return &Pending{c: &call{err: ErrClosed, done: closedChan}}
	}
	c, warm := p.clients[addr]
	p.mu.Unlock()
	if warm && !c.Closed() {
		return c.Go(ctx, method, segs, sink)
	}

	cl := newCall(method, segs, sink)
	go func() {
		c, err := p.Get(addr)
		if err != nil {
			cl.complete(err)
			return
		}
		c.issue(ctx, cl)
	}()
	return &Pending{c: cl}
}

// Close closes every pooled connection.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	cs := make([]*Client, 0, len(p.clients))
	for _, c := range p.clients {
		cs = append(cs, c)
	}
	p.clients = make(map[string]*Client)
	p.mu.Unlock()
	for _, c := range cs {
		c.Close()
	}
}
