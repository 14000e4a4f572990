package rpc

// Tests for the server's per-connection handler workers, the reply
// writes they make, and its lazily armed stall deadline (server.go).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
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

	// A worker of an earlier test's server may have signalled its
	// server's Close and not yet returned; the count below is exact.
	waitWorkers(0)
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

// frameCounter counts the frames — vectored writes — made on the
// connection it wraps.
type frameCounter struct {
	net.Conn
	frames atomic.Int64
}

func (c *frameCounter) WriteBuffers(b *net.Buffers) (int64, error) {
	c.frames.Add(1)
	return c.Conn.(BuffersWriter).WriteBuffers(b)
}

// TestStalledRepliesShareFrames: replies that finish while the reply
// write ahead of them is stalled queue behind it instead of waiting to
// write, and once the stall lifts they leave together in one frame.
func TestStalledRepliesShareFrames(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := n.Host("cli").Dial("srv:rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	sc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	s := NewServer()
	s.Handle(mEcho, func(_ context.Context, body []byte) ([]byte, error) { return body, nil })
	nc := &frameCounter{Conn: sc}
	c := &serverConn{s: s, nc: nc}

	n.SetLinkFault("srv", "cli", netsim.Fault{Stall: true})
	const replies = 16
	returned := make(chan struct{}, replies)
	for i := 0; i < replies; i++ {
		body := GetBuf(1)
		body.Bytes()[0] = byte(i)
		go func() {
			c.serve(request{id: uint64(i), method: mEcho, body: body})
			returned <- struct{}{}
		}()
	}
	// One worker writes and stalls; every other one queues its reply
	// behind it and returns.
	for i := 0; i < replies-1; i++ {
		select {
		case <-returned:
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d workers returned while a reply write was stalled, want %d", i, replies, replies-1)
		}
	}
	n.ClearLinkFault("srv", "cli")
	<-returned

	fr := newFrameReader(raw)
	seen := make(map[uint64]bool)
	for len(seen) < replies {
		id, status, size, err := fr.readResponseHeader()
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, size)
		if _, err := fr.readFull(body); err != nil {
			t.Fatal(err)
		}
		if status != statusOK || !bytes.Equal(body, []byte{byte(id)}) || seen[id] {
			t.Fatalf("reply %d: status %d, body %x (seen before: %v)", id, status, body, seen[id])
		}
		seen[id] = true
	}
	if got := nc.frames.Load(); got > 2 {
		t.Fatalf("%d replies finished during a stalled write left in %d frames, want at most 2", replies, got)
	}
}

// failingConn fails every write once fail is set, and leaves the
// connection open: closing it is the server's job.
type failingConn struct {
	net.Conn
	fail *atomic.Bool
}

func (c failingConn) WriteBuffers(b *net.Buffers) (int64, error) {
	if c.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.(BuffersWriter).WriteBuffers(b)
}

type failingListener struct {
	net.Listener
	fail *atomic.Bool
}

func (l failingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return failingConn{c, l.fail}, err
}

// TestFailedWriteLeavesNoWorker: a reply write that fails during a
// burst of replies closes the connection, so the client's pending calls
// fail instead of hanging, and no worker of the connection is left
// behind.
func TestFailedWriteLeavesNoWorker(t *testing.T) {
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
	var fail atomic.Bool
	s.Start(failingListener{l, &fail})
	defer s.Close()
	c := dialTest(t, n, "srv:rpc")

	const burst = 3 * maxIdleWorkers
	entered.Add(burst)
	pend := make([]*Pending, burst)
	for i := range pend {
		pend[i] = c.Go(context.Background(), mSlow, [][]byte{{byte(i)}}, nil)
	}
	entered.Wait()
	fail.Store(true)
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i, p := range pend {
		if _, err := p.Wait(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: %v, want the connection's failure", i, err)
		}
	}
	if got := waitWorkers(0); got != 0 {
		t.Fatalf("%d workers left behind by a failed write", got)
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
	s.HandleSegs(mEcho, func(context.Context, []byte) ([][]byte, []Releaser, error) { return segs, nil, nil })
	c := &serverConn{s: s, nc: discardConn{}}
	const runs = 100
	bodies := make([]*Buf, runs+1)
	for i := range bodies {
		bodies[i] = GetBuf(8)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c.serve(request{id: uint64(i), method: mEcho, body: bodies[i]})
		i++
	})
	if allocs != 0 {
		t.Fatalf("a dispatch allocates %.1f times, want 0", allocs)
	}
}

// discardConn is a connection whose writes all succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestDroppedRepliesReleaseHeld: when a write fails, the writer's own
// reply and every reply queued behind it are dropped, and what each
// handler held is released as it is dropped — a held pin on mapped
// store memory must not wait for the GC.
func TestDroppedRepliesReleaseHeld(t *testing.T) {
	s := NewServer()
	var released atomic.Int32
	s.HandleSegs(mEcho, func(context.Context, []byte) ([][]byte, []Releaser, error) {
		return [][]byte{[]byte("page")}, []Releaser{countedRelease{&released}}, nil
	})
	nc := &brokenWriteConn{entered: make(chan struct{}), fail: make(chan struct{})}
	c := &serverConn{s: s, nc: nc}
	first := make(chan struct{})
	go func() {
		defer close(first)
		c.serve(request{id: 1, method: mEcho, body: GetBuf(8)}) // becomes the writer
	}()
	<-nc.entered
	c.serve(request{id: 2, method: mEcho, body: GetBuf(8)}) // queues behind the write
	close(nc.fail)
	<-first
	if n := released.Load(); n != 2 {
		t.Fatalf("released %d of 2 dropped replies' held releasers", n)
	}
}

type countedRelease struct{ n *atomic.Int32 }

func (r countedRelease) Release() { r.n.Add(1) }

// brokenWriteConn blocks its first write until fail closes, then fails
// every write.
type brokenWriteConn struct {
	net.Conn
	once    sync.Once
	entered chan struct{}
	fail    chan struct{}
}

func (c *brokenWriteConn) Write([]byte) (int, error) {
	c.once.Do(func() { close(c.entered) })
	<-c.fail
	return 0, errors.New("connection broken")
}

func (c *brokenWriteConn) Close() error { return nil }

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

// BenchmarkServeConcurrentRequests is the server's per-request cost when
// eight callers share one connection: 64-byte echoes over the simulated
// fabric, whose replies may share frames.
func BenchmarkServeConcurrentRequests(b *testing.B) {
	const callers = 8
	n, addr := newTestServer(b, netsim.Fast())
	c := dialTest(b, n, addr)
	ctx := context.Background()
	var left atomic.Int64
	left.Store(int64(b.N))
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := make([]byte, 64)
			for left.Add(-1) >= 0 {
				p := c.Go(ctx, mEcho, [][]byte{body}, nil)
				if _, err := p.Wait(ctx); err != nil {
					b.Error(err)
					return
				}
				p.Release()
			}
		}()
	}
	wg.Wait()
}
