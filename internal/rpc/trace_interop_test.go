package rpc

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"blob/internal/netsim"
	"blob/internal/trace"
)

// captureConn is a net.Conn sink that records everything written to it;
// reads block until Close. It lets tests pin the exact bytes the client
// writer loop puts on the wire.
type captureConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed chan struct{}
	once   sync.Once
}

func newCaptureConn() *captureConn { return &captureConn{closed: make(chan struct{})} }

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *captureConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *captureConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *captureConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

func (c *captureConn) LocalAddr() net.Addr              { return nil }
func (c *captureConn) RemoteAddr() net.Addr             { return nil }
func (c *captureConn) SetDeadline(time.Time) error      { return nil }
func (c *captureConn) SetReadDeadline(time.Time) error  { return nil }
func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }

func waitCaptured(t *testing.T, c *captureConn, n int) []byte {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b := c.bytes(); len(b) >= n {
			return b
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("captured %d bytes, want %d", len(c.bytes()), n)
	return nil
}

// TestTracedUntracedInterop proves the four peer pairings work over one
// wire: traced and untraced clients against servers with and without a
// tracer, with ids forwarded or dropped exactly as specified.
func TestTracedUntracedInterop(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()

	const mSeen = 0x0042
	startServer := func(host string, tr *trace.Tracer) chan trace.Ctx {
		seen := make(chan trace.Ctx, 16)
		s := NewServer()
		s.SetTracer(tr)
		s.Handle(mSeen, func(ctx context.Context, body []byte) ([]byte, error) {
			seen <- trace.FromContext(ctx)
			return body, nil
		})
		l, err := n.Host(host).Listen("rpc")
		if err != nil {
			t.Fatal(err)
		}
		s.Start(l)
		t.Cleanup(s.Close)
		return seen
	}

	plainSeen := startServer("plain", nil)
	tr := trace.New("srv", 1)
	tracedSeen := startServer("traced", tr)

	pool := NewPool(netDialer{n.Host("cli")})
	defer pool.Close()

	// Untraced client → either server: zero ids, no spans recorded.
	for _, addr := range []string{"plain:rpc", "traced:rpc"} {
		if _, err := pool.Call(context.Background(), addr, mSeen, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := <-plainSeen; !got.Zero() {
		t.Fatalf("untraced call reached plain server with ids %+v", got)
	}
	if got := <-tracedSeen; !got.Zero() {
		t.Fatalf("untraced call reached traced server with ids %+v", got)
	}
	if spans := tr.Spans(); len(spans) != 0 {
		t.Fatalf("untraced call recorded %d spans", len(spans))
	}

	// Traced client → untracered server: the server forwards the ids
	// (so a downstream hop could still join the trace) without
	// recording anything.
	ctr := trace.New("cli", 1)
	ctx, op := ctr.ForceRoot(context.Background(), "test.op")
	if _, err := pool.Call(ctx, "plain:rpc", mSeen, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got := <-plainSeen
	if got.TraceID != op.TraceID() {
		t.Fatalf("plain server saw trace %x, want %x", got.TraceID, op.TraceID())
	}

	// Traced client → traced server: a server-side span is recorded
	// under the propagated parent, and the handler context's parent is
	// that new span, not the client's.
	if _, err := pool.Call(ctx, "traced:rpc", mSeen, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	got = <-tracedSeen
	if got.TraceID != op.TraceID() {
		t.Fatalf("traced server saw trace %x, want %x", got.TraceID, op.TraceID())
	}
	if got.SpanID == op.Ctx().SpanID {
		t.Fatal("traced server did not interpose its own span")
	}
	op.End()

	spans := tr.SpansFor(op.TraceID())
	if len(spans) != 1 {
		t.Fatalf("traced server recorded %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Parent != op.Ctx().SpanID || sp.ID != got.SpanID || sp.Bytes != 3 {
		t.Fatalf("server span %+v, want parent=%x id=%x bytes=3", sp, op.Ctx().SpanID, got.SpanID)
	}

	// The span buffer is served over the MSpans RPC.
	body, err := pool.Call(context.Background(), "traced:rpc", trace.MSpans,
		trace.EncodeSpansQuery(op.TraceID()))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := trace.DecodeSpans(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != 1 || remote[0] != sp {
		t.Fatalf("MSpans returned %+v, want [%+v]", remote, sp)
	}
}
