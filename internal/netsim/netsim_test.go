package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// startEcho runs an accept loop that echoes every byte back, returning a
// stop function.
func startEcho(t *testing.T, l net.Listener) func() {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return func() {
		l.Close()
		wg.Wait()
	}
}

func TestDialRefusedWithoutListener(t *testing.T) {
	n := New(Fast())
	defer n.Close()
	if _, err := n.Host("a").Dial("b:1"); err == nil {
		t.Fatal("Dial to unbound address should fail")
	}
}

func TestRoundTripBytes(t *testing.T) {
	n := New(Fast())
	defer n.Close()
	l, err := n.Host("srv").Listen("7")
	if err != nil {
		t.Fatal(err)
	}
	stop := startEcho(t, l)
	defer stop()

	c, err := n.Host("cli").Dial("srv:7")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	msg := []byte("hello, distributed world")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q, want %q", got, msg)
	}
}

func TestLargeTransferPreservesOrder(t *testing.T) {
	n := New(Fast())
	defer n.Close()
	l, _ := n.Host("srv").Listen("7")
	stop := startEcho(t, l)
	defer stop()
	c, err := n.Host("cli").Dial("srv:7")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	go func() {
		for off := 0; off < len(data); off += 8 << 10 {
			end := off + 8<<10
			if end > len(data) {
				end = len(data)
			}
			c.Write(data[off:end])
		}
	}()
	got := make([]byte, len(data))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted in transit")
	}
}

func TestLatencyIsApplied(t *testing.T) {
	const lat = 5 * time.Millisecond
	n := New(Config{Latency: lat})
	defer n.Close()
	l, _ := n.Host("srv").Listen("7")
	stop := startEcho(t, l)
	defer stop()
	c, err := n.Host("cli").Dial("srv:7")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	c.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 2*lat {
		t.Errorf("round trip = %v, want >= %v (two one-way link delays)", rtt, 2*lat)
	}
	if rtt > 20*lat {
		t.Errorf("round trip = %v, implausibly slow", rtt)
	}
}

func TestBandwidthMetering(t *testing.T) {
	// 1 MB at 10 MB/s should take about 100 ms of serialization time.
	n := New(Config{BandwidthBps: 10e6})
	defer n.Close()
	l, _ := n.Host("srv").Listen("7")
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
	}()
	c, err := n.Host("cli").Dial("srv:7")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := make([]byte, 64<<10)
	start := time.Now()
	total := 0
	for total < 1<<20 {
		nn, err := c.Write(payload)
		if err != nil {
			t.Fatal(err)
		}
		total += nn
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond {
		t.Errorf("1MB at 10MB/s finished in %v, want >= 80ms", elapsed)
	}
}

func TestSharedNICContention(t *testing.T) {
	// Two clients writing to one server host: the server NIC is shared,
	// so aggregate goodput should be capped near the NIC rate, not 2x.
	n := New(Config{BandwidthBps: 20e6})
	defer n.Close()
	l, _ := n.Host("srv").Listen("7")
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()

	const perClient = 1 << 20
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		host := n.Host(string(rune('a' + i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := host.Dial("srv:7")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			buf := make([]byte, 64<<10)
			for sent := 0; sent < perClient; sent += len(buf) {
				c.Write(buf)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 2 MB through a 20 MB/s shared NIC needs at least ~100 ms.
	if elapsed < 80*time.Millisecond {
		t.Errorf("shared NIC transfer took %v, want >= 80ms", elapsed)
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	n := New(Fast())
	defer n.Close()
	l, _ := n.Host("srv").Listen("7")
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 1)
		_, err = c.Read(buf)
		done <- err
	}()
	c, err := n.Host("cli").Dial("srv:7")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Errorf("reader got %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by peer close")
	}
}

func TestReadDeadline(t *testing.T) {
	n := New(Fast())
	defer n.Close()
	l, _ := n.Host("srv").Listen("7")
	defer l.Close()
	go l.Accept()
	c, err := n.Host("cli").Dial("srv:7")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	start := time.Now()
	_, err = c.Read(buf)
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if time.Since(start) > time.Second {
		t.Error("deadline ignored")
	}
}

// TestReadDeadlineMovedUnderPendingRead: as net.Conn has it, a deadline
// set while a read waits applies to that read, and once it is lifted
// the connection reads on with no byte lost.
func TestReadDeadlineMovedUnderPendingRead(t *testing.T) {
	n := New(Config{Latency: 50 * time.Millisecond})
	defer n.Close()
	l, _ := n.Host("srv").Listen("7")
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		s, _ := l.Accept()
		accepted <- s
	}()
	c, err := n.Host("cli").Dial("srv:7")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := <-accepted
	defer s.Close()

	buf := make([]byte, 8)
	for _, inFlight := range []bool{false, true} {
		if inFlight {
			// The wait for a segment still crossing the link ends too.
			s.Write([]byte("12345678"))
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.Read(buf)
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		c.SetReadDeadline(time.Unix(1, 0))
		select {
		case err := <-done:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("in flight %v: read got %v, want a deadline error", inFlight, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("in flight %v: the moved deadline did not end the pending read", inFlight)
		}
		c.SetReadDeadline(time.Time{})
	}
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "12345678" {
		t.Fatalf("read after the deadline was lifted: %q, %v", buf, err)
	}
}

func TestListenTwiceFails(t *testing.T) {
	n := New(Fast())
	defer n.Close()
	h := n.Host("srv")
	if _, err := h.Listen("7"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Listen("7"); err == nil {
		t.Fatal("duplicate Listen should fail")
	}
}

func TestListenerCloseReleasesAddress(t *testing.T) {
	n := New(Fast())
	defer n.Close()
	h := n.Host("srv")
	l, _ := h.Listen("7")
	l.Close()
	if _, err := h.Listen("7"); err != nil {
		t.Fatalf("re-Listen after Close failed: %v", err)
	}
}

func TestConcurrentDials(t *testing.T) {
	n := New(Fast())
	defer n.Close()
	l, _ := n.Host("srv").Listen("7")
	stop := startEcho(t, l)
	defer stop()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Host("cli").Dial("srv:7")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := []byte{byte(i)}
			c.Write(msg)
			got := make([]byte, 1)
			if _, err := io.ReadFull(c, got); err != nil {
				t.Error(err)
				return
			}
			if got[0] != byte(i) {
				t.Errorf("conn %d cross-talk: got %d", i, got[0])
			}
		}(i)
	}
	wg.Wait()
}

func BenchmarkPipeThroughputUnmetered(b *testing.B) {
	n := New(Fast())
	defer n.Close()
	l, _ := n.Host("srv").Listen("7")
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
	}()
	c, err := n.Host("cli").Dial("srv:7")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(buf)
	}
}
