package rpc

// Tests for the vectored data path: many-segment frames, pooled-buffer
// lifecycle (double-release and use-after-release fail
// fast; concurrent release/reuse is race-free), the async cold dial in
// Pool.Go, and the allocation regression gate on the frame path.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"blob/internal/netsim"
)

// mVecEcho echoes the request body through a vectored handler that
// answers with slices of the request itself — the aliasing pattern the
// release-after-flush protocol must support.
const mVecEcho = 40

// mVecSplit answers with the body split into single-byte segments,
// exercising many-segment frames.
const mVecSplit = 41

func newVecServer(t testing.TB, cfg netsim.Config) (*netsim.Net, string) {
	t.Helper()
	n := netsim.New(cfg)
	s := NewServer()
	s.HandleSegs(mVecEcho, func(_ context.Context, body []byte) ([][]byte, []Releaser, error) {
		if len(body) < 2 {
			return [][]byte{body}, nil, nil
		}
		mid := len(body) / 2
		return [][]byte{body[:mid], body[mid:]}, nil, nil
	})
	s.HandleSegs(mVecSplit, func(_ context.Context, body []byte) ([][]byte, []Releaser, error) {
		segs := make([][]byte, len(body))
		for i := range body {
			segs[i] = body[i : i+1]
		}
		return segs, nil, nil
	})
	s.Handle(mEcho, func(_ context.Context, body []byte) ([]byte, error) {
		return body, nil
	})
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	t.Cleanup(func() {
		s.Close()
		n.Close()
	})
	return n, "srv:rpc"
}

// TestVecHandlerManySegments drives a response of one segment per byte
// through the writer loop.
func TestVecHandlerManySegments(t *testing.T) {
	n, addr := newVecServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	msg := make([]byte, 300)
	for i := range msg {
		msg[i] = byte(i)
	}
	got, err := c.Call(context.Background(), mVecSplit, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("split echo mismatch: got %d bytes", len(got))
	}
}

// TestPendingRelease exercises the explicit-release path: waiting,
// releasing, and the idempotence of releasing an incomplete or
// already-released Pending.
func TestPendingRelease(t *testing.T) {
	n, addr := newVecServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	p := c.Go(context.Background(), mEcho, [][]byte{[]byte("release me")}, nil)
	p.Release() // before completion: no-op
	got, err := p.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "release me" {
		t.Fatalf("echo = %q", got)
	}
	p.Release()
	p.Release() // second Pending release: no-op (resp already detached)
}

// TestBufDoubleReleasePanics pins the fail-fast contract: releasing the
// same buffer twice must panic, and the buffer can never be inserted
// into the pool twice.
func TestBufDoubleReleasePanics(t *testing.T) {
	b := GetBuf(100)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

// TestBufUseAfterReleasePanics pins that Bytes on a released buffer
// fails fast instead of reading recycled memory.
func TestBufUseAfterReleasePanics(t *testing.T) {
	b := GetBuf(100)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes after Release did not panic")
		}
	}()
	_ = b.Bytes()
}

// TestPoisonOnRelease: with the seam on, a slice of a body kept past its
// Release reads the poison byte, pooled or not; restored, Release leaves
// the bytes alone again.
func TestPoisonOnRelease(t *testing.T) {
	restore := PoisonOnRelease(0xEE)
	for _, n := range []int{100, 5 << 20} { // a pooled class and an unpooled size
		b := GetBuf(n)
		kept := b.Bytes()
		copy(kept, "live")
		b.Release()
		if !bytes.Equal(kept[:4], []byte{0xEE, 0xEE, 0xEE, 0xEE}) {
			t.Fatalf("%d-byte buffer: kept slice reads %x after Release, want poison", n, kept[:4])
		}
	}
	restore()
	b := GetBuf(100)
	kept := b.Bytes()
	copy(kept, "live")
	b.Release()
	if string(kept[:4]) != "live" {
		t.Fatalf("poisoned after restore: %q", kept[:4])
	}
}

// TestPooledBufferStress hammers the pooled-buffer path from many
// goroutines with release enabled, verifying every response against its
// expected payload. Under -race this is the reuse-correctness gate: a
// buffer returned to the pool while still aliased by another call's
// response would be detected as cross-talk or a data race.
func TestPooledBufferStress(t *testing.T) {
	n, addr := newVecServer(t, netsim.Fast())
	const workers = 16
	const calls = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := dialTest(t, n, addr)
		wg.Add(1)
		go func(w int, c *Client) {
			defer wg.Done()
			payload := make([]byte, 4096)
			for i := 0; i < calls; i++ {
				binary.LittleEndian.PutUint64(payload, uint64(w)<<32|uint64(i))
				for j := 8; j < len(payload); j += 512 {
					payload[j] = byte(w ^ i)
				}
				p := c.Go(context.Background(), mVecEcho, [][]byte{payload[:1024], payload[1024:]}, nil)
				got, err := p.Wait(context.Background())
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if len(got) != len(payload) ||
					binary.LittleEndian.Uint64(got) != uint64(w)<<32|uint64(i) ||
					got[8+512] != byte(w^i) {
					t.Errorf("worker %d call %d: payload cross-talk", w, i)
					return
				}
				p.Release()
			}
		}(w, c)
	}
	wg.Wait()
}

// TestPoolGoColdDialAsync pins the satellite fix: Pool.Go on a cold
// address must not block the calling goroutine on the dial. A fan-out
// wave over one dead address and one live address must dispatch the
// live call immediately even though the dead dial would block/fail.
func TestPoolGoColdDialAsync(t *testing.T) {
	n, addr := newVecServer(t, netsim.Fast())
	pool := NewPool(netDialer{n.Host("cli")})
	defer pool.Close()

	// Cold fan-out: every Go returns without a round trip to the dialer.
	start := time.Now()
	pending := []*Pending{
		pool.Go(context.Background(), "dead:rpc", mEcho, [][]byte{[]byte("a")}, nil),
		pool.Go(context.Background(), addr, mEcho, [][]byte{[]byte("b")}, nil),
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cold Go blocked the caller for %v", elapsed)
	}
	if resp, err := pending[1].Wait(context.Background()); err != nil || string(resp) != "b" {
		t.Fatalf("live call: %q, %v", resp, err)
	}
	if _, err := pending[0].Wait(context.Background()); err == nil {
		t.Fatal("dead-address call succeeded")
	}
}

// TestFramePathAllocs is the allocation regression gate on the rpc frame
// path: one full vectored call round trip (client encode, server decode
// and vec-echo, response into a pooled buffer, release) must stay within
// a fixed allocation budget. The bound is deliberately loose — it
// catches a reintroduced per-page or per-body copy (which costs
// allocations proportional to the payload), not incidental small
// allocations.
func TestFramePathAllocs(t *testing.T) {
	n, addr := newVecServer(t, netsim.Fast())
	c := dialTest(t, n, addr)
	payload := make([]byte, 256<<10) // lands in the 256 KiB pool class
	segs := [][]byte{payload[:128<<10], payload[128<<10:]}
	ctx := context.Background()
	// Warm the connection and the buffer pools.
	for i := 0; i < 8; i++ {
		p := c.Go(ctx, mVecEcho, segs, nil)
		if _, err := p.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	const runs = 50
	avg := testing.AllocsPerRun(runs, func() {
		p := c.Go(ctx, mVecEcho, segs, nil)
		if _, err := p.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		p.Release()
	})
	// A 256 KiB payload copied even once through a fresh allocation
	// would show up as a large B/op spike; the structural allocations
	// per call (call struct, done channel, Pending, pool bookkeeping,
	// netsim's owned segment copy) stay far below this bound.
	if avg > 60 {
		t.Fatalf("frame path allocations regressed: %.1f allocs/op (budget 60)", avg)
	}
}

// TestVecErrorPath pins that vec handlers returning errors still
// propagate as ServerError with the pooled request released.
func TestVecErrorPath(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	s := NewServer()
	s.HandleSegs(7, func(_ context.Context, body []byte) ([][]byte, []Releaser, error) {
		return nil, nil, fmt.Errorf("vec says no to %q", body)
	})
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	defer s.Close()
	c := dialTest(t, n, "srv:rpc")
	_, err = c.Call(context.Background(), 7, []byte("zz"))
	if !IsServerError(err) {
		t.Fatalf("err = %v, want ServerError", err)
	}
	if want := `vec says no to "zz"`; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

// TestHeldBuffersReleasedAfterFlush pins the server half of the pooled
// response protocol: buffers a handler returns as held stay valid until
// its response (or error) is flushed and are released exactly once right
// after, by the connection's response writer. The writer flushes and
// releases one frame before it encodes the next, so once a later call on
// the same connection has completed, every earlier call's buffers must
// be back in the pool.
func TestHeldBuffersReleasedAfterFlush(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	s := NewServer()
	var mu sync.Mutex
	var handed []*Buf
	s.HandleSegs(7, func(_ context.Context, body []byte) ([][]byte, []Releaser, error) {
		b := GetBuf(len(body))
		copy(b.Bytes(), body)
		mu.Lock()
		handed = append(handed, b)
		mu.Unlock()
		if bytes.HasPrefix(body, []byte("fail")) {
			return nil, []Releaser{b}, fmt.Errorf("no")
		}
		return [][]byte{b.Bytes()}, []Releaser{b}, nil
	})
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	defer s.Close()
	c := dialTest(t, n, "srv:rpc")
	ctx := context.Background()

	payload := bytes.Repeat([]byte("held "), 20000) // 100 KB: the 256 KiB class
	if got, err := c.Call(ctx, 7, payload); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("echo from a held buffer: %d bytes, %v", len(got), err)
	}
	if _, err := c.Call(ctx, 7, []byte("fail")); !IsServerError(err) {
		t.Fatalf("err = %v, want ServerError", err)
	}
	if _, err := c.Call(ctx, 7, []byte("barrier")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, b := range handed[:2] {
		if !b.released.Load() {
			t.Errorf("call %d: held buffer not released after its response was flushed", i)
		}
	}
}
