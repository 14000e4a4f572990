package rpc

import (
	"context"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"blob/internal/netsim"
	"blob/internal/trace"
)

// These tests feed the server malformed byte streams and confirm it
// closes the connection cleanly instead of panicking, corrupting other
// connections, or leaking the accept loop.

func rawDial(t *testing.T, n *netsim.Net, addr string) io.ReadWriteCloser {
	t.Helper()
	c, err := n.Host("attacker").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerSurvivesGarbageStream(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	raw := rawDial(t, n, addr)
	raw.Write([]byte("this is definitely not the protocol"))
	raw.Close()

	// A well-behaved client on the same server still works.
	c := dialTest(t, n, addr)
	got, err := c.Call(context.Background(), mEcho, []byte("still alive"))
	if err != nil || string(got) != "still alive" {
		t.Fatalf("healthy client after garbage: %q, %v", got, err)
	}
}

func TestServerSurvivesTruncatedRequest(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	raw := rawDial(t, n, addr)
	// A valid header, then a length prefix promising 1000 bytes that
	// never arrive.
	buf := reqHeader(kindRequest, 1, mEcho, 0, trace.Ctx{}, 0)
	buf = binary.AppendUvarint(buf, 1000)
	buf = append(buf, []byte("short")...)
	raw.Write(buf)
	raw.Close() // EOF mid-body

	c := dialTest(t, n, addr)
	if _, err := c.Call(context.Background(), mEcho, []byte("x")); err != nil {
		t.Fatalf("server wedged by truncated request: %v", err)
	}
}

func TestServerRejectsOversizedBody(t *testing.T) {
	n, addr := newTestServer(t, netsim.Fast())
	raw := rawDial(t, n, addr)
	buf := reqHeader(kindRequest, 1, mEcho, 0, trace.Ctx{}, 0)
	buf = binary.AppendUvarint(buf, MaxBody+1) // absurd length claim
	raw.Write(buf)

	// The server must drop the connection rather than try to allocate.
	done := make(chan struct{})
	go func() {
		defer close(done)
		one := make([]byte, 1)
		raw.Read(one) // returns when the server closes
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("server did not drop connection with oversized length")
	}

	c := dialTest(t, n, addr)
	if _, err := c.Call(context.Background(), mEcho, []byte("y")); err != nil {
		t.Fatalf("server unusable after oversized claim: %v", err)
	}
}

func TestClientSurvivesGarbageResponse(t *testing.T) {
	// A fake "server" that answers with protocol garbage: the client
	// must fail all pending calls with an error, not hang or panic.
	n := netsim.New(netsim.Fast())
	defer n.Close()
	l, err := n.Host("evil").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Read a bit then spew garbage.
		buf := make([]byte, 64)
		conn.Read(buf)
		conn.Write([]byte{0xff, 0xee, 0xdd})
		conn.Close()
	}()

	c, err := Dial(netDialer{n.Host("cli")}, "evil:rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, mEcho, []byte("hello?")); err == nil {
		t.Fatal("call against garbage-speaking server succeeded")
	}
	if !c.Closed() {
		t.Error("client should close after protocol error")
	}
}

func TestServerDuplicateHandlerPanics(t *testing.T) {
	s := NewServer()
	s.Handle(1, func(context.Context, []byte) ([]byte, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Error("duplicate Handle should panic")
		}
	}()
	s.Handle(1, func(context.Context, []byte) ([]byte, error) { return nil, nil })
}

func TestConcurrentClientsIndependentFailure(t *testing.T) {
	// Killing one client's connection must not affect another client of
	// the same server.
	n, addr := newTestServer(t, netsim.Fast())
	c1 := dialTest(t, n, addr)
	c2 := dialTest(t, n, addr)
	c1.Close()
	if _, err := c2.Call(context.Background(), mEcho, []byte("independent")); err != nil {
		t.Fatalf("c2 affected by c1's close: %v", err)
	}
}
