package rpc

// Tests for the server's per-connection handler workers and its lazily
// armed stall deadline (server.go).

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blob/internal/netsim"
)

// workers counts the handler workers alive in the process.
func workers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "rpc.(*serverConn).worker(")
}

// waitWorkers polls until at most n workers are alive, and reports how
// many are.
func waitWorkers(n int) int {
	got := workers()
	for end := time.Now().Add(2 * time.Second); got > n && time.Now().Before(end); got = workers() {
		time.Sleep(time.Millisecond)
	}
	return got
}

// TestClosedConnLeavesNoWorker: a burst of concurrent slow requests
// starts a worker each; once they are answered at most maxIdleWorkers
// stay, and closing the connection ends every one of them.
func TestClosedConnLeavesNoWorker(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	s := NewServer()
	release := make(chan struct{})
	var entered sync.WaitGroup
	s.Handle(mSlow, func(_ context.Context, body []byte) ([]byte, error) {
		entered.Done()
		<-release
		return body, nil
	})
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	defer s.Close()
	c, err := Dial(netDialer{n.Host("cli")}, "srv:rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const burst = 3 * maxIdleWorkers
	entered.Add(burst)
	pend := make([]*Pending, burst)
	for i := range pend {
		pend[i] = c.Go(context.Background(), mSlow, [][]byte{{byte(i)}}, nil)
	}
	entered.Wait() // every request holds a worker of its own
	if got := workers(); got != burst {
		t.Fatalf("%d workers for %d concurrent requests", got, burst)
	}
	close(release)
	for i, p := range pend {
		if got, err := p.Wait(context.Background()); err != nil || !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("call %d: %q, %v", i, got, err)
		}
	}
	if got := waitWorkers(maxIdleWorkers); got > maxIdleWorkers {
		t.Fatalf("%d workers idle after the burst, want at most %d", got, maxIdleWorkers)
	}
	if got := workers(); got == 0 {
		t.Fatal("no idle worker kept for the next request")
	}
	c.Close()
	if got := waitWorkers(0); got != 0 {
		t.Fatalf("%d workers left behind by a closed connection", got)
	}
}

// deadlineCounter counts the read deadlines set on the connections its
// listener accepts.
type deadlineCounter struct {
	net.Listener
	sets *atomic.Int64
}

func (l deadlineCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return countingConn{c, l.sets}, err
}

type countingConn struct {
	net.Conn
	sets *atomic.Int64
}

func (c countingConn) SetReadDeadline(t time.Time) error {
	c.sets.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// TestWholeFramesArmNoDeadline: requests that arrive whole are served
// from the read-ahead without touching the connection's read deadline
// (TestStalledClientIsCut and TestStalledBodyIsCut hold the other half).
func TestWholeFramesArmNoDeadline(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	s := NewServer()
	s.Handle(mEcho, func(_ context.Context, body []byte) ([]byte, error) { return body, nil })
	s.SetStallTimeout(50 * time.Millisecond)
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	var sets atomic.Int64
	s.Start(deadlineCounter{l, &sets})
	defer s.Close()
	c := dialTest(t, n, "srv:rpc")
	for i := 0; i < 100; i++ {
		if _, err := c.Call(context.Background(), mEcho, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sets.Load(); got != 0 {
		t.Fatalf("100 whole frames set the read deadline %d times, want 0", got)
	}
}

// TestStalledBodyIsCut: a frame whose header arrives whole but whose body
// trails it and stops is cut at the stall timeout, not before.
func TestStalledBodyIsCut(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	s := NewServer()
	s.Handle(mEcho, func(_ context.Context, body []byte) ([]byte, error) { return body, nil })
	const stall = 50 * time.Millisecond
	s.SetStallTimeout(stall)
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	defer s.Close()

	raw, err := n.Host("cli").Dial("srv:rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	frame := []byte{kindRequest}
	frame = binary.LittleEndian.AppendUint64(frame, 1)
	frame = binary.LittleEndian.AppendUint32(frame, mEcho)
	frame = append(frame, 0)                   // flags
	frame = binary.AppendUvarint(frame, 100)   // the body is 100 bytes,
	frame = append(frame, make([]byte, 10)...) // of which 10 arrive
	start := time.Now()
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		one := make([]byte, 1)
		_, err := raw.Read(one)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read returned bytes; want connection closed")
		}
		if waited := time.Since(start); waited < stall {
			t.Fatalf("connection cut after %v, before the %v stall timeout", waited, stall)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a frame stalled mid-body was not cut within 2s")
	}
}

// TestWorkerCarriesMethodLabel: a running handler's goroutine carries
// the profiler label of its method, so CPU profiles split by method.
func TestWorkerCarriesMethodLabel(t *testing.T) {
	const mLabelled = 0x7ff1
	RegisterMethodName(mLabelled, "rpc.testLabelled")
	n := netsim.New(netsim.Fast())
	defer n.Close()
	s := NewServer()
	var profile bytes.Buffer
	s.Handle(mLabelled, func(context.Context, []byte) ([]byte, error) {
		return nil, pprof.Lookup("goroutine").WriteTo(&profile, 1)
	})
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	defer s.Close()
	c := dialTest(t, n, "srv:rpc")
	if _, err := c.Call(context.Background(), mLabelled, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(profile.String(), `"method":"rpc.testLabelled"`) {
		t.Fatalf("no goroutine labelled with the handler's method:\n%s", profile.String())
	}
}

// TestDispatchAllocatesNothing: serving a request — handler lookup,
// profiler label, reply — allocates nothing beyond what the handler
// does.
func TestDispatchAllocatesNothing(t *testing.T) {
	s := NewServer()
	segs := [][]byte{[]byte("static")}
	s.HandleSegs(mEcho, func(context.Context, []byte) ([][]byte, []*Buf, error) { return segs, nil, nil })
	c := &serverConn{s: s, replies: make(chan reply, 1), done: make(chan struct{})}
	const runs = 100
	bodies := make([]*Buf, runs+1)
	for i := range bodies {
		bodies[i] = GetBuf(8)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c.serve(request{id: uint64(i), method: mEcho, body: bodies[i]})
		<-c.replies
		i++
	})
	if allocs != 0 {
		t.Fatalf("a dispatch allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkServeSmallRequest is the per-request cost of the server: a
// 64-byte echo over the simulated fabric, one call at a time.
func BenchmarkServeSmallRequest(b *testing.B) {
	n, addr := newTestServer(b, netsim.Fast())
	c := dialTest(b, n, addr)
	body := make([]byte, 64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := c.Go(ctx, mEcho, [][]byte{body}, nil)
		if _, err := p.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}
