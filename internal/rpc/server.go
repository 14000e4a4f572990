package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"blob/internal/stats"
	"blob/internal/trace"
)

// methodNames maps method identifiers to human-readable names for span
// labels and metric labels. Service packages register their methods
// from init(); unknown ids render as hex.
var methodNames sync.Map // uint32 -> string

// RegisterMethodName associates a method id with a name like
// "provider.MPutPages". Typically called from a service package's
// init(); later registrations for the same id win.
func RegisterMethodName(method uint32, name string) {
	methodNames.Store(method, name)
}

func init() {
	// trace cannot import rpc (rpc imports trace), so its method ids are
	// named here.
	RegisterMethodName(trace.MSpans, "trace.MSpans")
	RegisterMethodName(trace.MEvents, "trace.MEvents")
}

// MethodName returns the registered name for a method id, or a hex
// rendering when none is known.
func MethodName(method uint32) string {
	if v, ok := methodNames.Load(method); ok {
		return v.(string)
	}
	return fmt.Sprintf("m_0x%04x", method)
}

// Server dispatches incoming requests to registered handlers. Each
// connection keeps a few handler workers that take its requests in
// turn (serverConn). A served connection has no writer goroutine: the
// worker that finishes a reply writes it, together with the replies
// other workers finish while it writes, as single vectored frames.
// Request bodies live in pooled buffers that are released once the
// frame carrying their response has been flushed.
type Server struct {
	mu       sync.Mutex
	handlers map[uint32]handler
	conns    map[net.Conn]struct{}
	lis      []net.Listener
	closed   bool

	tracer  *trace.Tracer
	metrics *serverMetrics

	stallTimeout time.Duration // mid-frame read deadline; 0 = DefaultStallTimeout

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// DefaultStallTimeout bounds how long a connection may sit mid-frame:
// once a request's first header byte has arrived, the rest of the
// message must follow within this window of the server first waiting
// for it, or the connection is cut. A peer that opens a frame and
// stalls (slowloris) would otherwise pin a connection goroutine and its
// pooled buffers forever. Idle connections — no frame in progress — are
// never timed out.
const DefaultStallTimeout = 30 * time.Second

// SetStallTimeout overrides the mid-frame stall timeout (tests use
// short values). Call before Serve.
func (s *Server) SetStallTimeout(d time.Duration) {
	s.mu.Lock()
	s.stallTimeout = d
	s.mu.Unlock()
}

// serverMetrics accumulates per-method handler latency into a
// long-lived registry (served over /metrics by the admin listener).
type serverMetrics struct {
	mu    sync.Mutex
	reg   *stats.Registry
	hists map[uint32]*stats.Histogram
}

func (m *serverMetrics) hist(method uint32) *stats.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[method]
	if !ok {
		h = m.reg.Histogram(stats.Label("rpc_handler_seconds", "method", MethodName(method)))
		m.hists[method] = h
	}
	return h
}

// handler is one registered method: its function and the profiler
// label set its requests run under, built once at registration, so a
// CPU profile of the server splits its time by method.
type handler struct {
	fn     SegHandlerFunc
	labels context.Context // pprof label method=<MethodName>
}

// unknownMethod is what lookup returns for an unregistered method: no
// function, and the label set of its own.
var unknownMethod = handler{labels: pprof.WithLabels(context.Background(), pprof.Labels("method", "unknown"))}

// NewServer returns an empty server; register handlers before Serve.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		handlers: make(map[uint32]handler),
		conns:    make(map[net.Conn]struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
}

// Handle registers a handler for a method identifier. Registration after
// Serve has started is allowed but must not race with itself.
func (s *Server) Handle(method uint32, h HandlerFunc) {
	s.HandleSegs(method, func(ctx context.Context, body []byte) ([][]byte, []Releaser, error) {
		out, err := h(ctx, body)
		if err != nil {
			return nil, nil, err
		}
		return [][]byte{out}, nil, nil
	})
}

// HandleSegs registers a scatter-gather handler: its response segments
// are written to the connection without intermediate assembly (see
// SegHandlerFunc for the aliasing rules).
func (s *Server) HandleSegs(method uint32, h SegHandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for method %#x", method))
	}
	s.handlers[method] = handler{fn: h, labels: pprof.WithLabels(context.Background(), pprof.Labels("method", MethodName(method)))}
}

// lookup returns the handler for a method (unknownMethod when none is
// registered) plus the server's observability hooks (tracer, metrics)
// under one lock acquisition.
func (s *Server) lookup(method uint32) (handler, *trace.Tracer, *serverMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.handlers[method]
	if !ok {
		h = unknownMethod
	}
	return h, s.tracer, s.metrics
}

// SetTracer attaches the process's recorder: every incoming traced
// request gets a server-side span named after its method, handlers run
// under a context carrying the trace, and trace.MSpans and
// trace.MEvents are served from the recorder's rings, so blobctl can
// gather traces and the monitor can tail this node's state transitions.
// Call at most once, before Serve.
func (s *Server) SetTracer(t *trace.Tracer) {
	if t == nil {
		return
	}
	s.mu.Lock()
	s.tracer = t
	s.mu.Unlock()
	s.Handle(trace.MSpans, func(_ context.Context, body []byte) ([]byte, error) {
		id, err := trace.DecodeSpansQuery(body)
		if err != nil {
			return nil, err
		}
		return trace.EncodeSpans(t.SpansFor(id)), nil
	})
	s.Handle(trace.MEvents, func(_ context.Context, body []byte) ([]byte, error) {
		since, minSev, err := trace.DecodeEventsQuery(body)
		if err != nil {
			return nil, err
		}
		return trace.EncodeEvents(t.Tail(since, minSev)), nil
	})
}

// EnableMetrics records per-method handler latency histograms into reg
// (series rpc_handler_seconds{method="..."}). Call before Serve.
func (s *Server) EnableMetrics(reg *stats.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = &serverMetrics{reg: reg, hists: make(map[uint32]*stats.Histogram)}
}

// Serve accepts connections until the listener is closed. It always
// returns a non-nil error (ErrClosed after Close). Serve may be invoked
// concurrently on several listeners.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Close the listener here: a Close that ran before this Serve
		// registered l never saw it, and leaving it open would leak a
		// zombie listener that accepts connections nobody serves.
		l.Close()
		return ErrClosed
	}
	s.lis = append(s.lis, l)
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Start runs Serve in a goroutine, for callers that manage lifecycle
// through Close.
func (s *Server) Start(l net.Listener) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(l)
	}()
}

// Close stops all listeners and connections and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancel()
	for _, l := range lis {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// reply is one completed response awaiting transmission. segs are the
// body segments, written back to back. req is the pooled request body
// and held what the handler returned to keep segs valid (pooled buffers
// it filled, pins on mapped store memory); all are released once the
// response is flushed — not when the handler returns — so a handler may
// answer with slices of the request itself, of buffers it drew from the
// pool, or of memory it pinned.
type reply struct {
	id     uint64
	status uint8
	segs   [][]byte
	req    *Buf
	held   []Releaser
}

// request is one request read off a connection, on its way to a worker.
type request struct {
	id       uint64
	method   uint32
	tc       trace.Ctx // zero when the request is untraced
	deadline time.Time // the caller's budget, anchored at the header; zero = none
	body     *Buf
}

// maxIdleWorkers is how many handler workers a connection keeps waiting
// between requests. A request goes to an idle worker of its connection,
// so a steady stream of small requests reuses the same goroutines and
// their grown stacks; a new worker starts only when none is idle, so a
// slow handler still never blocks the requests behind it. Once more
// than this many are idle, the surplus exits.
const maxIdleWorkers = 4

// serverConn is one served connection: the read loop that parses
// requests and the handler workers that run them and write their
// replies.
type serverConn struct {
	s    *Server
	nc   net.Conn
	work chan request // unbuffered: a send succeeds only into an idle worker; closed when the read loop ends
	idle atomic.Int32 // workers between requests, about to wait or waiting on work

	wmu     sync.Mutex
	writing bool         // a worker is writing: replies queue behind it
	queued  []reply      // replies finished during the write, for the writer to send next
	spare   []reply      // the writer's last batch, emptied, to queue into next
	enc     frameEncoder // used only by the worker that set writing
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	c := &serverConn{s: s, nc: nc, work: make(chan request)}
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	defer close(c.work) // the read loop is its only sender

	s.mu.Lock()
	stall := s.stallTimeout
	s.mu.Unlock()
	if stall <= 0 {
		stall = DefaultStallTimeout
	}

	// Between messages the connection may idle forever; inside one, the
	// rest must follow within the stall timeout (see
	// DefaultStallTimeout). The deadline is armed only by a read inside
	// a frame that has to wait on the socket: a request the read-ahead
	// already holds whole costs no deadline at all.
	sr := &stallReader{conn: nc, stall: stall}
	br := newFrameReader(sr)
	for {
		sr.endFrame()
		if _, err := br.br.Peek(1); err != nil {
			return
		}
		sr.inFrame = true
		hdr, err := br.readRequestHeader()
		if err != nil {
			return
		}
		r := request{id: hdr.id, method: hdr.method, tc: hdr.tc}
		// The budget is anchored to the moment the header was parsed.
		if hdr.budget > 0 {
			r.deadline = time.Now().Add(hdr.budget)
		}
		if r.body, err = br.readBody(); err != nil {
			return
		}
		M.BytesReceived.Add(int64(r.body.Len()))
		c.dispatch(r)
	}
}

// dispatch hands r to an idle worker of the connection, or to a new one
// when none is waiting.
func (c *serverConn) dispatch(r request) {
	select {
	case c.work <- r:
	default:
		c.s.wg.Add(1)
		go c.worker(r)
	}
}

// worker serves r, then the requests dispatch hands it, until the
// connection closes or enough of its siblings are idle already.
func (c *serverConn) worker(r request) {
	defer c.s.wg.Done()
	for {
		c.serve(r)
		if c.idle.Add(1) > maxIdleWorkers {
			c.idle.Add(-1)
			return
		}
		var ok bool
		if r, ok = <-c.work; !ok {
			return
		}
		c.idle.Add(-1)
	}
}

// serve runs one request's handler and sends its reply.
func (c *serverConn) serve(r request) {
	s := c.s
	h, tracer, metrics := s.lookup(r.method)
	// The worker's CPU counts against the method in profiles (the
	// -admin listener's /debug/pprof/profile). The label set was built
	// when the method was registered, so this allocates nothing.
	pprof.SetGoroutineLabels(h.labels)
	// Observability around the handler: a server-side span when the
	// request carries a trace (an untracered server still forwards the
	// ids to any RPCs the handler makes), and a per-method latency
	// observation when metrics are enabled.
	hctx := s.ctx
	var op *trace.Op
	if !r.tc.Zero() {
		if tracer != nil {
			hctx, op = tracer.Resume(s.ctx, r.tc, MethodName(r.method))
			op.AddBytes(int64(r.body.Len()))
		} else {
			hctx = trace.ContextWith(s.ctx, nil, r.tc)
		}
	}
	// Deadline propagation: the handler context expires when the
	// caller's budget does, so nested RPCs the handler makes carry a
	// shrunken budget downstream. Work whose budget lapsed while queued
	// is dropped outright — the caller has already given up on it.
	if !r.deadline.IsZero() {
		if !time.Now().Before(r.deadline) {
			M.CallsExpired.Inc()
			op.EndErr(context.DeadlineExceeded)
			c.send(reply{id: r.id, req: r.body, status: statusExpired})
			return
		}
		dctx := withLazyDeadline(hctx, r.deadline)
		defer dctx.finish(context.Canceled)
		hctx = dctx
	}
	var start time.Time
	if metrics != nil {
		start = time.Now()
	}
	// The request body stays alive until its response is flushed (the
	// reply carries it), so handlers may answer with slices of the
	// request; anything retained beyond the response lifetime must
	// still be copied.
	var segs [][]byte
	var held []Releaser
	var err error
	if h.fn == nil {
		err = fmt.Errorf("rpc: unknown method %#x", r.method)
	} else {
		segs, held, err = h.fn(hctx, r.body.Bytes())
	}
	if metrics != nil {
		// Traced requests leave their trace ID as the bucket's
		// exemplar, so a latency spike on /metrics points at a
		// concrete span tree.
		metrics.hist(r.method).ObserveExemplar(time.Since(start), r.tc.TraceID)
	}
	op.EndErr(err)
	rep := reply{id: r.id, req: r.body, held: held}
	switch {
	case err == nil:
		rep.status = statusOK
		rep.segs = segs
	case !r.deadline.IsZero() && errors.Is(err, context.DeadlineExceeded):
		// The propagated budget ran out mid-handler: report it as an
		// expiry, not an application error, so the client sees the same
		// context.DeadlineExceeded it would have produced locally.
		M.CallsExpired.Inc()
		rep.status = statusExpired
	default:
		rep.status = statusErr
		rep.segs = [][]byte{[]byte(err.Error())}
	}
	M.CallsHandled.Inc()
	c.send(rep)
}

// send writes r to the connection. A worker that finds no write in
// progress becomes the writer: it sends its own reply and then every
// reply other workers queued while it wrote, so replies that finish
// during a write share the next frame. A failed write closes the
// connection, and the replies queued behind it are dropped, as are
// replies that finish later; each dropped reply's request body and held
// releasers are released as it is dropped, since a held pin keeps
// store memory mapped until it is.
func (c *serverConn) send(r reply) {
	c.wmu.Lock()
	c.queued = append(c.queued, r)
	if c.writing {
		c.wmu.Unlock()
		return
	}
	c.writing = true
	for len(c.queued) > 0 {
		batch := c.queued
		c.queued = c.spare
		c.wmu.Unlock()
		err := c.write(batch)
		clear(batch) // the sent replies' segments may pin large memory
		c.wmu.Lock()
		c.spare = batch[:0]
		if err != nil {
			for _, r := range c.queued {
				r.release()
			}
			clear(c.queued)
			c.queued = c.queued[:0]
			c.nc.Close() // unblocks the read loop
		}
	}
	c.writing = false
	c.wmu.Unlock()
}

// write sends batch in frames of up to maxFrame bytes. Handler output
// segments go to the connection untouched; each reply's request buffer
// and what its handler held are released once the frame carrying it is
// on the wire, or once a failed write drops it.
func (c *serverConn) write(batch []reply) error {
	first := 0
	for i, r := range batch {
		blen := 0
		for _, s := range r.segs {
			blen += len(s)
		}
		c.enc.hdrByte(kindResponse)
		c.enc.hdrUint64(r.id)
		c.enc.hdrByte(r.status)
		c.enc.hdrUvarint(uint64(blen))
		for _, s := range r.segs {
			c.enc.bodySeg(s)
		}
		if c.enc.total < maxFrame && i+1 < len(batch) {
			continue
		}
		err := c.enc.finish(c.nc, i+1-first)
		for _, r := range batch[first : i+1] {
			r.release()
		}
		if err != nil {
			for _, r := range batch[i+1:] {
				r.release()
			}
			return err
		}
		first = i + 1
	}
	return nil
}

// release releases the reply's request body and everything its handler
// held. It is called exactly once per reply, sent or dropped.
func (r reply) release() {
	if r.req != nil {
		r.req.Release()
	}
	for _, h := range r.held {
		h.Release()
	}
}

// stallReader is a served connection as its frame reader sees it. The
// first read inside a frame that has to go to the socket arms the stall
// deadline, once per frame, so a peer that trickles bytes cannot
// stretch it; endFrame clears it, only if it was armed. A frame read
// whole from the read-ahead never touches the deadline.
type stallReader struct {
	conn    net.Conn
	stall   time.Duration
	inFrame bool // a frame's first byte has arrived
	armed   bool // the stall deadline is set
}

func (r *stallReader) Read(p []byte) (int, error) {
	if r.inFrame && !r.armed {
		r.conn.SetReadDeadline(time.Now().Add(r.stall))
		r.armed = true
	}
	return r.conn.Read(p)
}

// endFrame returns the connection to idling: no deadline.
func (r *stallReader) endFrame() {
	r.inFrame = false
	if r.armed {
		r.conn.SetReadDeadline(time.Time{})
		r.armed = false
	}
}

// readAhead sizes a connection's read-ahead: room for frame headers and
// small messages. A longer body is read past it, straight into place
// (frameReader.readFull), so bulk bytes are not copied through it.
const readAhead = 16 << 10

// frameReader incrementally parses the message stream from a
// connection, through a small read-ahead.
type frameReader struct {
	conn io.Reader
	br   *bufio.Reader // the read-ahead over conn
}

func newFrameReader(conn io.Reader) *frameReader {
	return &frameReader{conn: conn, br: bufio.NewReaderSize(conn, readAhead)}
}

// readFull fills p: it copies only what the read-ahead already holds
// and reads the rest straight from the connection into p. It returns
// how many bytes of p it filled.
func (f *frameReader) readFull(p []byte) (int, error) {
	n := 0
	if f.br.Buffered() > 0 {
		n, _ = f.br.Read(p) // buffered bytes only: it cannot fail
	}
	if n < len(p) {
		m, err := io.ReadFull(f.conn, p[n:])
		return n + m, err
	}
	return n, nil
}

// requestHeader is one request frame's header, up to but excluding the
// body length.
type requestHeader struct {
	id     uint64
	method uint32
	tc     trace.Ctx     // zero when the request is untraced
	budget time.Duration // the caller's remaining deadline budget; 0 = none
}

// errBadRequest rejects a request header no client of this build emits;
// the server answers it by closing the connection.
var errBadRequest = errors.New("rpc: malformed request header")

// readRequestHeader parses a request frame's header (see the package
// doc for the layout): the kind byte must be kindRequest, flag bits
// outside knownFlags are rejected, and a deadline budget must lie in
// [1, maxDeadlineMS] so it converts to a Duration without overflow.
func (f *frameReader) readRequestHeader() (requestHeader, error) {
	var h requestHeader
	// Fixed-width fields are parsed in place in the read buffer.
	fixed, err := f.br.Peek(14) // kind | id | method | flags
	if err != nil {
		return h, err
	}
	h.id = binary.LittleEndian.Uint64(fixed[1:])
	h.method = binary.LittleEndian.Uint32(fixed[9:])
	kind, flags := fixed[0], fixed[13]
	f.br.Discard(14)
	if kind != kindRequest || flags&^knownFlags != 0 {
		return h, errBadRequest
	}
	if flags&flagTraced != 0 {
		ids, err := f.br.Peek(16)
		if err != nil {
			return h, err
		}
		h.tc = trace.Ctx{TraceID: binary.LittleEndian.Uint64(ids[0:]), SpanID: binary.LittleEndian.Uint64(ids[8:])}
		f.br.Discard(16)
	}
	if flags&flagDeadline != 0 {
		ms, err := binary.ReadUvarint(f.br)
		if err != nil {
			return h, err
		}
		if ms == 0 || ms > maxDeadlineMS {
			return h, errBadRequest
		}
		h.budget = time.Duration(ms) * time.Millisecond
	}
	return h, nil
}

// readResponseHeader parses a response frame's header (see the package
// doc for the layout) up to and including the body length.
func (f *frameReader) readResponseHeader() (id uint64, status byte, n int, err error) {
	fixed, err := f.br.Peek(10) // kind | id | status
	if err != nil {
		return 0, 0, 0, fmt.Errorf("rpc: read: %w", err)
	}
	kind := fixed[0]
	id, status = binary.LittleEndian.Uint64(fixed[1:]), fixed[9]
	f.br.Discard(10)
	if kind != kindResponse {
		return 0, 0, 0, fmt.Errorf("rpc: protocol error: kind %#x", kind)
	}
	if n, err = f.bodyLen(); err != nil {
		return 0, 0, 0, fmt.Errorf("rpc: read: %w", err)
	}
	return id, status, n, nil
}

// bodyLen reads a body's length prefix, bounded by MaxBody.
func (f *frameReader) bodyLen() (int, error) {
	n, err := binary.ReadUvarint(f.br)
	if err != nil {
		return 0, err
	}
	if n > MaxBody {
		return 0, ErrTooLarge
	}
	return int(n), nil
}

// readBody reads one length-prefixed body into a pooled buffer.
func (f *frameReader) readBody() (*Buf, error) {
	n, err := f.bodyLen()
	if err != nil {
		return nil, err
	}
	body := GetBuf(n)
	if _, err := f.readFull(body.data); err != nil {
		body.Release()
		return nil, err
	}
	return body, nil
}
