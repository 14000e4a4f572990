package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"blob/internal/netsim"
)

// startedSink reads its body into dst: the first kilobyte, then a
// signal on started, then the rest, straight off the connection.
type startedSink struct {
	dst     []byte
	started atomic.Bool
}

func (s *startedSink) ReadBody(b *Body) error {
	if b.Len() != len(s.dst) {
		return fmt.Errorf("body of %d bytes, want %d", b.Len(), len(s.dst))
	}
	if err := b.ReadFull(s.dst[:1<<10]); err != nil {
		return err
	}
	s.started.Store(true)
	return b.ReadFull(s.dst[1<<10:])
}

// halfServer answers the first two requests on each connection it
// accepts: the first with header and half a body of size bytes of 0x5A,
// then — once rest is closed — the other half, then the second with an
// echo of its body. It holds the connection until the client closes it.
func halfServer(l net.Listener, size int, rest <-chan struct{}) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			fr := newFrameReader(conn)
			var ids [2]uint64
			var echo *Buf
			for i := range ids {
				h, err := fr.readRequestHeader()
				if err != nil {
					return
				}
				body, err := fr.readBody()
				if err != nil {
					return
				}
				ids[i], echo = h.id, body
			}
			answer := func(id uint64, body []byte) []byte {
				frame := binary.LittleEndian.AppendUint64([]byte{kindResponse}, id)
				frame = binary.AppendUvarint(append(frame, statusOK), uint64(len(body)))
				return append(frame, body...)
			}
			first := answer(ids[0], bytes.Repeat([]byte{0x5A}, size))
			cut := len(first) - size/2
			if _, err := conn.Write(first[:cut]); err != nil {
				return
			}
			<-rest
			conn.Write(append(first[cut:], answer(ids[1], echo.Bytes())...))
			io.Copy(io.Discard, conn)
		}()
	}
}

// TestDetachMidBodySparesConnection: detaching a call whose sink is
// reading its body off the connection returns without waiting for the
// rest of the body, the sink writes nothing after that, and the
// connection stays up — the call queued behind it on the same
// connection gets its answer, and the detached call still completes.
func TestDetachMidBodySparesConnection(t *testing.T) {
	for _, tt := range []struct {
		name   string
		listen func(t *testing.T) (net.Listener, Network)
	}{
		{"tcp", func(t *testing.T) (net.Listener, Network) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return l, TCP{}
		}},
		{"netsim", func(t *testing.T) (net.Listener, Network) {
			n := netsim.New(netsim.Fast())
			t.Cleanup(n.Close)
			l, err := n.Host("srv").Listen("rpc")
			if err != nil {
				t.Fatal(err)
			}
			return l, netDialer{n.Host("cli")}
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			l, network := tt.listen(t)
			defer l.Close()
			const size = 256 << 10
			rest := make(chan struct{})
			go halfServer(l, size, rest)
			c, err := Dial(network, l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			sink := &startedSink{dst: make([]byte, size)}
			detached := c.Go(ctx, mEcho, [][]byte{[]byte("first")}, sink)
			behind := c.Go(ctx, mEcho, [][]byte{[]byte("second")}, nil)
			for !sink.started.Load() {
				if ctx.Err() != nil {
					t.Fatal("the sink never started reading its body")
				}
				time.Sleep(time.Millisecond)
			}

			returned := make(chan struct{})
			go func() {
				detached.Detach()
				close(returned)
			}()
			select {
			case <-returned:
			case <-time.After(5 * time.Second):
				close(rest)
				t.Fatal("Detach waited for the rest of the body")
			}
			for i := range sink.dst {
				sink.dst[i] = 0xEE
			}
			close(rest)

			resp, err := behind.Wait(ctx)
			if err != nil || string(resp) != "second" {
				t.Fatalf("the call behind the detached one: %q, %v", resp, err)
			}
			if _, err := detached.Wait(ctx); err != nil {
				t.Fatalf("detached call, its answer in: %v", err)
			}
			for i, b := range sink.dst {
				if b != 0xEE {
					t.Fatalf("the sink wrote byte %d after Detach returned", i)
				}
			}
			if c.Closed() {
				t.Fatal("Detach closed the connection")
			}
		})
	}
}
