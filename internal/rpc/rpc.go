// Package rpc implements the lightweight remote procedure call framework
// the system's processes communicate through. It reproduces the key
// property the paper calls out in §V.A: a single client performs a large
// number of concurrent RPCs, and the framework "delays RPC calls to a
// single machine and streams all of them in a single real RPC call" —
// i.e. every connection has a writer loop that coalesces all pending
// outgoing messages into one network frame. Fine-grain dispersal of data
// and metadata then costs little more than coarse-grain transfers.
//
// Design:
//
//   - A Client multiplexes concurrent calls over one connection using
//     64-bit call identifiers.
//   - Outgoing requests are queued; a writer goroutine drains the queue
//     and writes everything available as one frame (the aggregation the
//     paper describes). It is the only writer goroutine: a served
//     connection has none. There the worker that finishes a reply
//     writes it, with whatever replies other workers finish meanwhile
//     in the same frame (serverConn.send).
//   - Message bodies are scatter-gather: a caller hands the framework a
//     list of segments (Go) and the frame is flushed as header bytes
//     and payload segments with a single vectored write (net.Buffers /
//     writev), so page payloads are never copied into a contiguous
//     encode buffer.
//   - Inbound bodies bypass the connection's small read-ahead: only
//     what it already holds is copied out of it, and the rest is read
//     from the connection straight into place. A request body lands in
//     a pooled buffer (see buf.go), released when the response is
//     flushed; pooled buffers a handler's response aliases are released
//     at the same post-flush point. A response body goes to its call's
//     sink (see body.go): by default a pooled buffer the caller releases
//     when done, or the caller's own decoder, which reads it straight
//     into its destination. A caller that stops waiting detaches its
//     sink (Pending.Detach); the connection and its other calls carry
//     on.
//   - Each connection keeps a few handler workers: a request goes to an
//     idle one, and a new one starts only when none is idle, so a slow
//     request does not head-of-line-block the connection while a stream
//     of small ones starts no goroutine. The surplus beyond
//     maxIdleWorkers exits, and all exit when the connection closes.
//     Handler CPU carries the runtime/pprof label method=<name>.
//   - Transport is any net.Conn source: real TCP (Dialer) or the
//     simulated fabric in internal/netsim.
//
// Message wire format (both directions, little endian):
//
//	request:  0x05 | u64 id | u32 method | u8 flags
//	               | [u64 traceID | u64 spanID   if flags&1]
//	               | [uvarint deadlineMS         if flags&2]
//	               | uvarint len | body
//	response: 0x02 | u64 id | u8 status | uvarint len | body-or-error
//
// There is one request kind and one way to send it: Go (and Call, which
// is Go plus Wait) takes the trace and the deadline from the caller's
// context, so no call site can drop either by accident. A server that
// does not trace still forwards the ids (docs/observability.md). The
// deadline field is the caller's remaining budget in whole milliseconds
// (1 ms to one day on the wire: an already-expired call never leaves
// the client, which also clamps longer budgets to a day). The server
// derives a handler-context deadline from it and drops work whose
// budget lapsed while queued, so abandoned requests stop consuming the
// cluster hop by hop (docs/robustness.md). A frame with an unknown kind
// byte, unknown flag bits or an out-of-range budget closes the
// connection.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blob/internal/stats"
	"blob/internal/trace"
)

// Network abstracts connection establishment so the same stack runs over
// TCP and over the netsim fabric.
type Network interface {
	Dial(addr string) (net.Conn, error)
}

// TCP is the real-network implementation of Network.
type TCP struct{}

// Dial connects over TCP.
func (TCP) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// HandlerFunc processes one request body and returns the response body.
// Returning an error sends a ServerError to the caller. The context is
// cancelled when the server shuts down. The body is a pooled buffer that
// stays valid until the handler's response has been flushed — answering
// with slices of the request is fine — but anything retained beyond that
// (stored, captured by a goroutine) must be copied.
type HandlerFunc func(ctx context.Context, body []byte) ([]byte, error)

// SegHandlerFunc is the scatter-gather handler, the form the server
// stores and runs: the returned segments are written to the connection
// back to back without being copied into a contiguous response buffer,
// so a handler can answer straight out of long-lived store memory.
// Segments must stay immutable until flushed, which happens before the
// client's call completes; the request-body lifetime rule is
// HandlerFunc's.
//
// held lists what keeps the segments' memory valid: pooled buffers
// (GetBuf) and anything else with a Release, such as a diskstore pin on
// a mapped segment. Returning them passes their ownership to the server,
// which releases each exactly once after the response — or the error,
// when err is non-nil — has been flushed; the handler must neither
// release nor touch them afterwards, and a second Release panics, as it
// does for request bodies.
type SegHandlerFunc func(ctx context.Context, body []byte) (segs [][]byte, held []Releaser, err error)

// Releaser is one thing a response holds until it is flushed. *Buf is
// one; a second Release of the same Releaser must panic.
type Releaser interface{ Release() }

// ServerError is an application-level error propagated from a remote
// handler. It is distinguishable from transport failures so callers can
// decide whether retrying on another replica makes sense.
type ServerError string

// Error implements the error interface.
func (e ServerError) Error() string { return string(e) }

// IsServerError reports whether err is an application error returned by a
// remote handler (as opposed to a transport failure).
func IsServerError(err error) bool {
	var se ServerError
	return errors.As(err, &se)
}

// ErrClosed is returned for calls on a closed client or server.
var ErrClosed = errors.New("rpc: connection closed")

// ErrRemoteExpired is returned when the server reports that the call's
// propagated deadline lapsed before or during handling. It matches
// context.DeadlineExceeded under errors.Is, so callers need no special
// case: a deadline blown remotely looks like one blown locally.
var ErrRemoteExpired error = remoteExpiredError{}

type remoteExpiredError struct{}

func (remoteExpiredError) Error() string { return "rpc: deadline exceeded on server" }

func (remoteExpiredError) Is(target error) bool { return target == context.DeadlineExceeded }

// ErrTooLarge is returned when a message exceeds the frame limit.
var ErrTooLarge = errors.New("rpc: message too large")

// MaxBody bounds a single request or response body.
const MaxBody = 128 << 20

const (
	kindResponse = 0x02
	// kindRequest is the one request kind. 0x01, 0x03 and 0x04 were the
	// plain/traced/deadline kinds it replaced; they stay unassigned so a
	// stale peer fails the kind check instead of being misparsed.
	kindRequest = 0x05

	// Request header flags: which optional fields follow the flags byte.
	flagTraced   = 1 << 0 // u64 traceID | u64 spanID
	flagDeadline = 1 << 1 // uvarint remaining budget, ms
	knownFlags   = flagTraced | flagDeadline

	statusOK  = 0
	statusErr = 1
	// statusExpired marks a reply to a request whose deadline budget ran
	// out server-side (queued too long, or the handler overran it).
	statusExpired = 2
)

// maxDeadlineMS bounds the deadline budget a request may carry: one day.
// The client clamps longer budgets to it and the server rejects anything
// above it, so the wire value always converts to a time.Duration without
// overflow.
const maxDeadlineMS = 24 * 60 * 60 * 1000

// maxFrame bounds how many payload bytes one flush coalesces.
const maxFrame = 1 << 20

// Metrics collects framework-level counters, shared process-wide so the
// experiment harness can report how many physical frames carried how many
// logical messages (the aggregation ratio).
type Metrics struct {
	CallsSent      stats.Counter
	CallsHandled   stats.Counter
	CallsExpired   stats.Counter // requests dropped server-side: deadline lapsed in queue
	FramesSent     stats.Counter
	MessagesCoaled stats.Counter
	BytesSent      stats.Counter
	BytesReceived  stats.Counter
}

// M is the process-global metrics instance.
var M Metrics

// call tracks one in-flight request on a client.
type call struct {
	id     uint64
	method uint32
	tc     trace.Ctx // zero for untraced calls (the common case)
	dlMS   uint64    // remaining deadline budget in ms; 0 = no deadline
	segs   [][]byte
	// sink consumes the OK body: the caller's, or the call itself, which
	// lands it in resp. state orders the sink against Detach.
	sink   Sink
	state  atomic.Int32
	client *Client // the connection the call went out on, once issued
	done   chan struct{}
	resp   *Buf
	err    error
	// A call issued through a Pool feeds pool's record of addr with its
	// outcome and its send-to-reply latency (Pool.record), once. sent is
	// when it was issued, wrote how long after that its request had been
	// written out (0 until then): a request's own upload, and the queue
	// ahead of it on the client's link, are not the peer's latency.
	pool     *Pool
	addr     string
	sent     time.Time
	wrote    atomic.Int64
	recorded atomic.Bool
}

// A call's sink states: its body reaches the sink only if the caller
// has not detached the call first.
const (
	sinkIdle      int32 = iota // no body yet
	sinkRunning                // the sink is reading the body off the connection
	sinkDone                   // the sink has returned
	sinkDetached               // detached first: the body is discarded unread
	sinkDetaching              // detached mid-body: Detach waits for the sink to return
)

func newCall(method uint32, segs [][]byte, sink Sink) *call {
	cl := &call{method: method, segs: segs, sink: sink, done: make(chan struct{})}
	if sink == nil {
		cl.sink = cl
	}
	return cl
}

// ReadBody is the default sink: the body lands in a pooled Buf that
// Wait returns.
func (cl *call) ReadBody(b *Body) error {
	buf := GetBuf(b.Len())
	if err := b.ReadFull(buf.data); err != nil {
		buf.Release()
		return err
	}
	cl.resp = buf
	return nil
}

// complete finishes the call with err. A pooled call's outcome reaches
// its peer record first, so a waiter that wakes finds it there.
func (cl *call) complete(err error) {
	cl.err = err
	if cl.pool != nil {
		cl.pool.record(cl, err, time.Since(cl.sent)-time.Duration(cl.wrote.Load()))
	}
	close(cl.done)
}

// Client is one multiplexed RPC connection to a remote server.
type Client struct {
	conn net.Conn

	mu      sync.Mutex
	pending map[uint64]*call
	closed  bool

	// smu orders a sink that Detach interrupts (see Pending.Detach);
	// sinkStopped, over smu, wakes the Detach once the sink has returned.
	smu         sync.Mutex
	sinkStopped sync.Cond

	nextID atomic.Uint64
	sendq  chan *call
	done   chan struct{}
}

// NewClient wraps an established connection. Most callers use Dial or a
// Pool instead.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]*call),
		sendq:   make(chan *call, 4096),
		done:    make(chan struct{}),
	}
	c.sinkStopped.L = &c.smu
	go c.writeLoop()
	go c.readLoop()
	return c
}

// Dial establishes a client connection to addr over the given network.
func Dial(n Network, addr string) (*Client, error) {
	conn, err := n.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// deadlineBudget converts a context deadline into the wire's whole-
// millisecond remaining budget (0 = none). expired reports a deadline
// already in the past — such a call must fail locally, never reach the
// wire.
func deadlineBudget(ctx context.Context) (ms uint64, expired bool) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return 0, true
	}
	ms = uint64((rem + time.Millisecond - 1) / time.Millisecond)
	return min(ms, maxDeadlineMS), false
}

// Go starts an asynchronous call whose body is the concatenation of
// segs. The segments are not copied: they must stay immutable until the
// call completes (Wait returns), at which point the frame has been
// flushed to the connection. sink consumes the OK response body off the
// connection; nil lands it in a pooled buffer that Wait returns (see
// Sink and Pending.Detach). The request header carries whatever trace
// ctx holds and, when ctx has a deadline, the remaining budget, so the
// server can stop working on a request its caller has already
// abandoned; an already-expired ctx fails without touching the
// connection. ctx is read once, here: cancelling it later does not
// recall the request — pass it to Wait for that.
func (c *Client) Go(ctx context.Context, method uint32, segs [][]byte, sink Sink) *Pending {
	cl := newCall(method, segs, sink)
	c.issue(ctx, cl)
	return &Pending{c: cl}
}

// issue sends cl on this connection, or completes it with the reason it
// cannot be sent.
func (c *Client) issue(ctx context.Context, cl *call) {
	dlMS, expired := deadlineBudget(ctx)
	if expired {
		cl.complete(context.DeadlineExceeded)
		return
	}
	total := 0
	for _, s := range cl.segs {
		total += len(s)
	}
	if total > MaxBody {
		cl.complete(ErrTooLarge)
		return
	}
	cl.id = c.nextID.Add(1)
	cl.tc = trace.FromContext(ctx)
	cl.dlMS = dlMS
	cl.client = c
	cl.sent = time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cl.complete(ErrClosed)
		return
	}
	c.pending[cl.id] = cl
	c.mu.Unlock()

	c.sendq <- cl // a full queue blocks: backpressure rather than failure
	M.CallsSent.Inc()
}

// Call performs a synchronous RPC: Go, then Wait, under the same ctx.
func (c *Client) Call(ctx context.Context, method uint32, body []byte) ([]byte, error) {
	return c.Go(ctx, method, [][]byte{body}, nil).Wait(ctx)
}

// Pending represents an in-flight asynchronous call.
type Pending struct {
	c *call
}

var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Done returns a channel that is closed when the call completes; Wait
// then returns without blocking. Hedged fan-outs select over several
// calls with it.
func (p *Pending) Done() <-chan struct{} { return p.c.done }

// Wait blocks until the call completes or ctx is done. The returned body
// sits in a pooled buffer: a caller that fully consumes it may hand the
// buffer back with Release; a caller that retains it simply never
// releases (the buffer is then garbage-collected as usual).
func (p *Pending) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-p.c.done:
		if p.c.resp == nil {
			return nil, p.c.err
		}
		return p.c.resp.Bytes(), p.c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns the response body's pooled buffer for reuse. Call it
// only after Wait has returned and the body bytes (including any
// sub-slices of them) are no longer referenced; calling it before the
// call completed is a no-op. Never calling Release is always safe.
func (p *Pending) Release() {
	select {
	case <-p.c.done:
	default:
		return
	}
	if b := p.c.resp; b != nil {
		p.c.resp = nil
		b.Release()
	}
}

// Detach stops the call's sink from writing the caller's memory: once
// Detach returns, the sink has finished or will never run. A caller
// that stops waiting before the call completes — its ctx is done, a
// hedge won — detaches it before it reuses that memory. A body that has
// not arrived is then discarded unread. A sink already reading its body
// is interrupted, not waited for: Detach moves the connection's read
// deadline into the past, so the sink's read returns at once, and
// returns when the sink has; it never blocks on the network. The read
// loop then lifts the deadline and discards the rest of the body off
// the connection, which stays up for its other calls. The call still
// completes once its answer is in, successfully if the whole answer
// arrived, so Done and Wait keep working, and a pooled call still feeds
// its peer record (Pool.Go): when it completes, or as a timeout at
// drainBound. Detaching a call without a sink of its own touches no
// sink.
func (p *Pending) Detach() {
	cl := p.c
	if cl.pool != nil {
		cl.pool.drain(cl)
	}
	if _, own := cl.sink.(*call); own || cl.state.CompareAndSwap(sinkIdle, sinkDetached) ||
		cl.state.Load() != sinkRunning {
		return
	}
	c := cl.client
	c.smu.Lock()
	if cl.state.CompareAndSwap(sinkRunning, sinkDetaching) {
		c.conn.SetReadDeadline(aLongTimeAgo)
		for cl.state.Load() == sinkDetaching {
			c.sinkStopped.Wait()
		}
	}
	c.smu.Unlock()
}

// aLongTimeAgo is a read deadline already past: setting it ends a
// pending read at once.
var aLongTimeAgo = time.Unix(1, 0)

// deliver runs cl's sink over its OK body, unless cl was detached
// first.
func (c *Client) deliver(cl *call, b *Body) error {
	if !cl.state.CompareAndSwap(sinkIdle, sinkRunning) {
		return nil // detached: the body is discarded unread
	}
	b.cl = cl
	err := cl.sink.ReadBody(b)
	b.cl = nil
	if cl.state.CompareAndSwap(sinkRunning, sinkDone) {
		return err
	}
	// Detach interrupted the sink: lift the deadline it set before the
	// loop reads on, and wake it. Detach holds smu from its state change
	// to its wait, so the deadline is set by the time smu is ours.
	c.smu.Lock()
	c.conn.SetReadDeadline(time.Time{})
	cl.state.Store(sinkDone)
	c.smu.Unlock()
	c.sinkStopped.Broadcast()
	return nil // nobody reads this answer; it counts as arrived
}

// frameEncoder assembles one outbound frame as scatter-gather segments:
// header bytes accumulate in a reusable arena (consecutive headers share
// one segment), payload segments alias the callers' buffers untouched.
// Growing the arena is safe mid-frame: sealed segments keep referencing
// the memory they were carved from, whose contents are final. The zero
// value is ready to use; the arena and segment list grow to what the
// connection's frames need and are reused from then on.
type frameEncoder struct {
	arena []byte
	segs  [][]byte
	out   net.Buffers // the write's view of segs; a field, so no flush allocates it
	start int         // arena offset where the current unsealed header run began
	total int         // payload bytes accumulated (headers + bodies)
}

func (e *frameEncoder) hdrByte(v byte) { e.arena = append(e.arena, v) }

func (e *frameEncoder) hdrUint32(v uint32) {
	e.arena = binary.LittleEndian.AppendUint32(e.arena, v)
}

func (e *frameEncoder) hdrUint64(v uint64) {
	e.arena = binary.LittleEndian.AppendUint64(e.arena, v)
}

func (e *frameEncoder) hdrUvarint(v uint64) {
	e.arena = binary.AppendUvarint(e.arena, v)
}

// sealHeader closes the current header run into a segment.
func (e *frameEncoder) sealHeader() {
	if len(e.arena) > e.start {
		e.segs = append(e.segs, e.arena[e.start:len(e.arena):len(e.arena)])
		e.total += len(e.arena) - e.start
		e.start = len(e.arena)
	}
}

// bodySeg appends one payload segment (sealing any pending header run).
func (e *frameEncoder) bodySeg(s []byte) {
	if len(s) == 0 {
		return
	}
	e.sealHeader()
	e.segs = append(e.segs, s)
	e.total += len(s)
}

// finish seals the frame, counts it as one frame carrying n messages,
// writes it with a single vectored write and empties the encoder for
// the next frame.
func (e *frameEncoder) finish(conn net.Conn, n int) error {
	e.sealHeader()
	M.FramesSent.Inc()
	M.MessagesCoaled.Add(int64(n))
	M.BytesSent.Add(int64(e.total))
	e.out = e.segs
	err := writeBuffers(conn, &e.out)
	e.arena = e.arena[:0]
	e.segs = e.segs[:0]
	e.start = 0
	e.total = 0
	return err
}

// BuffersWriter is the fast path for conns that can accept a whole
// scatter-gather frame at once (netsim implements it to coalesce the
// frame into a single simulated segment). net.Conns without it go
// through net.Buffers.WriteTo, which uses writev on TCP.
type BuffersWriter interface {
	WriteBuffers(*net.Buffers) (int64, error)
}

func writeBuffers(conn net.Conn, bufs *net.Buffers) error {
	if bw, ok := conn.(BuffersWriter); ok {
		_, err := bw.WriteBuffers(bufs)
		return err
	}
	_, err := bufs.WriteTo(conn)
	return err
}

// writeLoop drains the send queue, coalescing every queued request into a
// single vectored write — the paper's RPC aggregation, minus the copies.
func (c *Client) writeLoop() {
	var enc frameEncoder
	var frame []*call // the requests of the frame being written
	for {
		var cl *call
		select {
		case cl = <-c.sendq:
		case <-c.done:
			return
		}
		appendReq := func(cl *call) {
			frame = append(frame, cl)
			blen := 0
			for _, s := range cl.segs {
				blen += len(s)
			}
			var flags byte
			if !cl.tc.Zero() {
				flags |= flagTraced
			}
			if cl.dlMS > 0 {
				flags |= flagDeadline
			}
			enc.hdrByte(kindRequest)
			enc.hdrUint64(cl.id)
			enc.hdrUint32(cl.method)
			enc.hdrByte(flags)
			if flags&flagTraced != 0 {
				enc.hdrUint64(cl.tc.TraceID)
				enc.hdrUint64(cl.tc.SpanID)
			}
			if flags&flagDeadline != 0 {
				enc.hdrUvarint(cl.dlMS)
			}
			enc.hdrUvarint(uint64(blen))
			for _, s := range cl.segs {
				enc.bodySeg(s)
			}
		}
		appendReq(cl)
		// Opportunistically drain whatever else is queued right now:
		// every message collected here travels in the same frame.
	drain:
		for enc.total < maxFrame {
			select {
			case more := <-c.sendq:
				appendReq(more)
			default:
				break drain
			}
		}
		if err := enc.finish(c.conn, len(frame)); err != nil {
			c.failAll(fmt.Errorf("rpc: write: %w", err))
			return
		}
		now := time.Now()
		for _, cl := range frame {
			cl.wrote.Store(int64(now.Sub(cl.sent)))
		}
		clear(frame)
		frame = frame[:0]
	}
}

// readLoop parses responses off the connection and completes calls.
// There is one delivery path: an OK body goes to its call's sink, and
// whatever the sink leaves unread — all of it for a call that was
// dropped or detached — is discarded.
func (c *Client) readLoop() {
	fr := newFrameReader(c.conn)
	body := &Body{fr: fr}
	for {
		id, status, n, err := fr.readResponseHeader()
		if err != nil {
			c.failAll(err)
			return
		}
		M.BytesReceived.Add(int64(n))

		c.mu.Lock()
		cl := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		body.left, body.err = n, nil
		var cerr error
		switch {
		case cl == nil:
			// Cancelled or duplicate: dropped with the rest below.
		case status == statusOK:
			cerr = c.deliver(cl, body)
		case status == statusExpired:
			cerr = ErrRemoteExpired
		default:
			cerr = readServerError(body)
		}
		// Discard fails only if the connection did, here or in the sink.
		if err := body.Discard(body.Len()); err != nil {
			err = fmt.Errorf("rpc: read: %w", err)
			c.failAll(err)
			if cl != nil {
				cl.complete(err)
			}
			return
		}
		if cl != nil {
			cl.complete(cerr)
		}
	}
}

// readServerError reads an error answer's message.
func readServerError(b *Body) error {
	msg := GetBuf(b.Len())
	defer msg.Release()
	if err := b.ReadFull(msg.data); err != nil {
		return err
	}
	return ServerError(msg.data)
}

// failAll completes every pending call with err and closes the client.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pend := c.pending
	c.pending = make(map[uint64]*call)
	c.mu.Unlock()

	close(c.done)
	c.conn.Close()
	for _, cl := range pend {
		cl.complete(err)
	}
}

// Close shuts the connection down; pending calls fail with ErrClosed.
func (c *Client) Close() error {
	c.failAll(ErrClosed)
	return nil
}

// Closed reports whether the client has failed or been closed.
func (c *Client) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}
