package core_test

// Tests for the replicated fetch's sink (read.go, hedge.go). A page
// answer is read off the socket straight into the read's buffer, so
// every path on which a read stops waiting for a fetch detaches it
// first, and an answer that does not parse fails its group over like a
// transport error.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"blob/internal/cluster"
	"blob/internal/core"
	"blob/internal/erasure"
	"blob/internal/provider"
	"blob/internal/rpc"
)

// poison fills a read's buffer once Read has returned: a byte that stops
// being poison landed after the read.
const poison = 0xEE

func poisonAll(buf []byte) {
	for i := range buf {
		buf[i] = poison
	}
}

// requirePoisoned fails if a byte of buf changes within the window. It
// asserts that nothing happens, so it can only watch for a while.
func requirePoisoned(t *testing.T, buf []byte, window time.Duration) {
	t.Helper()
	for end := time.Now().Add(window); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		for i, c := range buf {
			if c != poison {
				t.Fatalf("byte %d of the read's buffer changed after Read returned", i)
			}
		}
	}
}

// TestCancelledReadLeavesBufferAlone: a read whose ctx is cancelled while
// a page answer is mid-body detaches the fetch — interrupting its sink —
// before it returns, so the rest of the answer, sent afterwards, never
// lands in the buffer.
func TestCancelledReadLeavesBufferAlone(t *testing.T) {
	cl, c := launch(t, cluster.Config{})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(ctx, pattern(5, pageSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, pageSize)
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}

	// Page 0's provider gives way to one that sends half of each answer,
	// then the rest once rest is closed.
	i := int(tierProviders(t, b, v)[0]) - 1
	cl.DataServers[i].Close()
	l, err := cl.Fabric().Host(cl.DataHostName(i)).Listen("data")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.Pool().Invalidate(cl.DataHostName(i) + ":data")
	half, rest := make(chan struct{}, 1), make(chan struct{})
	go halfAnswerer(l, half, rest)

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := b.Read(rctx, got, 0, v)
		done <- err
	}()
	select {
	case <-half:
	case <-time.After(5 * time.Second):
		t.Fatal("the read never reached the provider")
	}
	// Let the first half reach the sink. If it has not yet, the fetch is
	// detached before its answer arrives instead: the test holds either way.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled read: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled read did not return")
	}
	poisonAll(got)
	close(rest)
	requirePoisoned(t, got, 200*time.Millisecond)
}

// TestCancelledReadSparesOtherCalls: a read cancelled mid-answer detaches
// its fetch without failing the other calls on the same connection — a
// write and a read to the same provider, their answers queued behind
// the stalled one, both succeed once it moves again.
func TestCancelledReadSparesOtherCalls(t *testing.T) {
	cl, c := launch(t, cluster.Config{DataProviders: 1})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(5, 4*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}

	p := stallMidAnswer(t, cl, c, 0)
	p.left.Store(1)
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := b.Read(rctx, got, 0, v)
		done <- err
	}()
	select {
	case <-p.half:
	case <-time.After(5 * time.Second):
		t.Fatal("the read never reached the provider")
	}
	time.Sleep(20 * time.Millisecond) // let the first half reach the sink

	// A write and a read to the same provider, in flight behind the
	// stalled answer when the read is cancelled.
	sv := cl.DataServices[0]
	puts, gets := sv.PutLatency.Count(), sv.GetLatency.Count()
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	wdone := make(chan error, 1)
	go func() {
		_, err := b.Write(wctx, pattern(9, 2*pageSize), 8*pageSize)
		wdone <- err
	}()
	other := make([]byte, 2*pageSize)
	odone := make(chan error, 1)
	go func() {
		_, err := b.Read(wctx, other, 0, v)
		odone <- err
	}()
	for sv.PutLatency.Count() == puts || sv.GetLatency.Count() == gets {
		if wctx.Err() != nil {
			t.Fatal("the write and the read never reached the provider")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled read: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled read did not return")
	}
	poisonAll(got)
	close(p.rest)
	if err := <-wdone; err != nil {
		t.Fatalf("write beside the cancelled read: %v", err)
	}
	if err := <-odone; err != nil {
		t.Fatalf("read beside the cancelled read: %v", err)
	}
	if !bytes.Equal(other, data[:len(other)]) {
		t.Fatal("the read beside the cancelled one returned wrong bytes")
	}
	requirePoisoned(t, got, 200*time.Millisecond)
}

// TestStallMidAnswerOpensBreaker: a provider that stalls partway through
// every page answer still trips its breaker. Hedges serve each read and
// the straggler is detached mid-answer, but the drain still waits for
// its answer to end and counts the stall as the provider failing.
func TestStallMidAnswerOpensBreaker(t *testing.T) {
	cl, c := launch(t, cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(17, 8*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := stallMidAnswer(t, cl, c, int(tierProviders(t, b, v)[0])-1)
	p.left.Store(math.MaxInt64)
	got := make([]byte, len(data))
	for deadline := time.Now().Add(10 * time.Second); len(c.Pool().OpenBreakers()) == 0; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened on the provider stalling mid-answer")
		}
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := b.Read(rctx, got, 0, v)
		cancel()
		if err != nil {
			t.Fatalf("read beside the stalling provider: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read beside the stalling provider returned wrong bytes")
		}
	}
}

// TestHedgeWinLeavesBufferAlone: once hedges have served every page of a
// stalled replica's group, the straggler is detached before Read
// returns, so its answer — sent when the stall heals — never lands in
// the buffer.
func TestHedgeWinLeavesBufferAlone(t *testing.T) {
	cl, c := launch(t, cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: 1}})
	ctx := context.Background()
	b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(13, 8*pageSize)
	v, err := b.Write(ctx, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := b.Read(ctx, got, 0, v); err != nil {
		t.Fatal(err)
	}

	i := int(tierProviders(t, b, v)[0]) - 1
	answered := cl.DataServices[i].GetLatency.Count()
	cl.StallProvider(i)
	defer cl.Heal()
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := b.Read(rctx, got, 0, v); err != nil {
		t.Fatalf("read with one stalled replica: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hedged read returned wrong bytes")
	}
	if c.HedgeWins.Value() == 0 {
		t.Fatal("no hedge won: nothing was abandoned")
	}
	poisonAll(got)

	// Healed, the provider gets the straggler's request and answers it.
	cl.Heal()
	for deadline := time.Now().Add(5 * time.Second); cl.DataServices[i].GetLatency.Count() == answered; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stalled provider never answered the straggler")
		}
	}
	requirePoisoned(t, got, 200*time.Millisecond)
}

// TestMalformedAnswerFailsOver: a provider whose MGetPages answer does
// not parse — its count one too many, as from a provider on another
// answer layout — fails its group like a transport error: the read
// serves the pages from the next replica, or reconstructs them from
// the stripe's other shards. Hedging is off so the answer is always
// waited for and parsed.
func TestMalformedAnswerFailsOver(t *testing.T) {
	for _, tt := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"replicated", cluster.Config{Redundancy: erasure.Redundancy{K: 1, M: 1}}},
		{"rs(2,1)", cluster.Config{DataProviders: 3, MetaProviders: 3,
			Redundancy: erasure.Redundancy{K: 2, M: 1}}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cl, c := launch(t, tt.cfg, unhedged)
			ctx := context.Background()
			b, err := c.CreateBlob(ctx, pageSize, 64*pageSize)
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(21, 8*pageSize)
			v, err := b.Write(ctx, data, 0)
			if err != nil {
				t.Fatal(err)
			}
			mangled := miscountAnswers(t, cl, c, int(tierProviders(t, b, v)[0])-1)
			got := make([]byte, len(data))
			if _, err := b.Read(ctx, got, 0, v); err != nil {
				t.Fatalf("read with one provider answering malformed: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read returned wrong bytes")
			}
			if mangled.Load() == 0 {
				t.Fatal("the malformed provider was never asked")
			}
		})
	}
}

// miscountAnswers puts a proxy on data provider i's endpoint: it
// forwards MGetPages to the provider, now listening elsewhere on its
// host, and answers with the page count one too high. It returns how
// many answers it mangled.
func miscountAnswers(t *testing.T, cl *cluster.Cluster, c *core.Client, i int) *atomic.Int64 {
	t.Helper()
	host := cl.Fabric().Host(cl.DataHostName(i))
	cl.DataServers[i].Close()
	backend := rpc.NewServer()
	cl.DataServices[i].RegisterHandlers(backend)
	lb, err := host.Listen("backend")
	if err != nil {
		t.Fatal(err)
	}
	backend.Start(lb)
	fwd := rpc.NewPool(cl.Fabric().Host("proxy"))
	var mangled atomic.Int64
	proxy := rpc.NewServer()
	proxy.Handle(provider.MGetPages, func(ctx context.Context, body []byte) ([]byte, error) {
		resp, err := fwd.Call(ctx, host.Name()+":backend", provider.MGetPages, body)
		if err != nil {
			return nil, err
		}
		mangled.Add(1)
		n, k := binary.Uvarint(resp)
		return append(binary.AppendUvarint(nil, n+1), resp[k:]...), nil
	})
	lp, err := host.Listen("data")
	if err != nil {
		t.Fatal(err)
	}
	proxy.Start(lp)
	t.Cleanup(func() {
		proxy.Close()
		backend.Close()
		fwd.Close()
	})
	c.Pool().Invalidate(host.Name() + ":data")
	return &mangled
}

// midAnswerStaller is a proxy in front of a data provider (see
// stallMidAnswer).
type midAnswerStaller struct {
	left atomic.Int64  // answers still to stall
	half chan struct{} // a signal per stalled answer, if one is waited for
	rest chan struct{} // closed: the stalled answers go on
}

// stallMidAnswer puts a proxy on data provider i's endpoint that relays
// every connection to the provider, now listening elsewhere on its
// host, byte for byte — except that while left is positive, an answer
// longer than a page goes out as its header and half its body, a
// signal on half, and the rest once rest is closed. The answers behind
// it on the connection wait with it, as behind any provider stalled
// mid-answer.
func stallMidAnswer(t *testing.T, cl *cluster.Cluster, c *core.Client, i int) *midAnswerStaller {
	t.Helper()
	host := cl.Fabric().Host(cl.DataHostName(i))
	cl.DataServers[i].Close()
	backend := rpc.NewServer()
	cl.DataServices[i].RegisterHandlers(backend)
	lb, err := host.Listen("backend")
	if err != nil {
		t.Fatal(err)
	}
	backend.Start(lb)
	lp, err := host.Listen("data")
	if err != nil {
		t.Fatal(err)
	}
	p := &midAnswerStaller{half: make(chan struct{}, 1), rest: make(chan struct{})}
	go func() {
		for {
			cc, err := lp.Accept()
			if err != nil {
				return
			}
			bc, err := cl.Fabric().Host("proxy").Dial(host.Name() + ":backend")
			if err != nil {
				cc.Close()
				continue
			}
			go func() {
				io.Copy(bc, cc)
				bc.Close()
			}()
			go func() {
				p.relayAnswers(cc, bc)
				cc.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		select {
		case <-p.rest:
		default:
			close(p.rest)
		}
		lp.Close()
		backend.Close()
	})
	c.Pool().Invalidate(host.Name() + ":data")
	return p
}

// relayAnswers copies response frames (layout in internal/rpc's package
// doc) from src to dst, stalling them as stallMidAnswer describes.
func (p *midAnswerStaller) relayAnswers(dst io.Writer, src io.Reader) {
	br := bufio.NewReader(src)
	for {
		frame := make([]byte, 10) // kind | id | status
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return
		}
		frame = binary.AppendUvarint(frame, n)
		frame = append(frame, make([]byte, n)...)
		if _, err := io.ReadFull(br, frame[len(frame)-int(n):]); err != nil {
			return
		}
		cut := len(frame)
		if n > pageSize && p.left.Add(-1) >= 0 {
			cut -= int(n) / 2
		}
		if _, err := dst.Write(frame[:cut]); err != nil {
			return
		}
		if cut < len(frame) {
			select {
			case p.half <- struct{}{}:
			default:
			}
			<-p.rest
			if _, err := dst.Write(frame[cut:]); err != nil {
				return
			}
		}
	}
}

// halfAnswerer serves page fetches on l the way a provider stalling
// mid-answer would: every page is pageSize bytes of 0x5A, and each
// answer goes out as its header and half its body, a signal on half,
// and the rest once rest is closed.
func halfAnswerer(l net.Listener, half chan<- struct{}, rest <-chan struct{}) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			id, pages, err := readFetch(bufio.NewReader(conn))
			if err != nil {
				return
			}
			frame := fetchAnswer(id, pages)
			cut := len(frame) - pages*pageSize/2
			if _, err := conn.Write(frame[:cut]); err != nil {
				return
			}
			select {
			case half <- struct{}{}:
			default:
			}
			<-rest
			conn.Write(frame[cut:])
		}()
	}
}

// readFetch reads one request frame (layout in internal/rpc's package
// doc) and returns its call id and how many pages its MGetPages body
// asks for.
func readFetch(br *bufio.Reader) (id uint64, pages int, err error) {
	var hdr [14]byte // kind | id | method | flags
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, err
	}
	if hdr[13]&1 != 0 { // trace ids
		if _, err := br.Discard(16); err != nil {
			return 0, 0, err
		}
	}
	if hdr[13]&2 != 0 { // deadline budget
		if _, err := binary.ReadUvarint(br); err != nil {
			return 0, 0, err
		}
	}
	if _, err := binary.ReadUvarint(br); err != nil { // body length
		return 0, 0, err
	}
	n, err := binary.ReadUvarint(br) // the body's page count
	if err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(hdr[1:]), int(n), nil
}

// fetchAnswer is the response frame answering call id with pages found
// pages of 0x5A: 0x02 | u64 id | u8 status OK | uvarint len | body, the
// body's headers first (provider/service.go).
func fetchAnswer(id uint64, pages int) []byte {
	body := binary.AppendUvarint(nil, uint64(pages))
	for i := 0; i < pages; i++ {
		body = append(body, 1)
		body = binary.AppendUvarint(body, pageSize)
	}
	body = append(body, bytes.Repeat([]byte{0x5A}, pages*pageSize)...)
	frame := binary.LittleEndian.AppendUint64([]byte{0x02}, id)
	frame = binary.AppendUvarint(append(frame, 0), uint64(len(body)))
	return append(frame, body...)
}
