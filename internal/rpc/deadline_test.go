package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"blob/internal/netsim"
)

// TestDeadlinePropagatesToHandler: the server must hand the handler a
// context that expires when the caller's budget does, and report the
// overrun as a deadline error (not an opaque ServerError).
func TestDeadlinePropagatesToHandler(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	s := NewServer()
	sawDeadline := make(chan time.Duration, 1)
	s.Handle(1, func(ctx context.Context, _ []byte) ([]byte, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			sawDeadline <- -1
		} else {
			sawDeadline <- time.Until(dl)
		}
		return nil, nil
	})
	s.Handle(2, func(ctx context.Context, _ []byte) ([]byte, error) {
		<-ctx.Done() // overrun the budget
		return nil, ctx.Err()
	})
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	defer s.Close()
	c := dialTest(t, n, "srv:rpc")

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, 1, nil); err != nil {
		t.Fatal(err)
	}
	rem := <-sawDeadline
	if rem <= 0 || rem > 400*time.Millisecond {
		t.Errorf("handler saw remaining budget %v, want (0, 400ms]", rem)
	}

	// Method 2 blocks until its propagated budget lapses; the client
	// must see DeadlineExceeded whichever side reports first.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := c.Call(ctx2, 2, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("overrun err = %v, want DeadlineExceeded", err)
	}
}

// TestDeadlineShrinksHopByHop: A's handler calls B with its own
// handler context, so B must observe a strictly smaller budget than
// the client gave A.
func TestDeadlineShrinksHopByHop(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()

	bSrv := NewServer()
	bBudget := make(chan time.Duration, 1)
	bSrv.Handle(1, func(ctx context.Context, _ []byte) ([]byte, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			bBudget <- -1
		} else {
			bBudget <- time.Until(dl)
		}
		return nil, nil
	})
	lb, err := n.Host("b").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	bSrv.Start(lb)
	defer bSrv.Close()

	aSrv := NewServer()
	pool := NewPool(netDialer{n.Host("a")})
	defer pool.Close()
	aSrv.Handle(1, func(ctx context.Context, _ []byte) ([]byte, error) {
		time.Sleep(20 * time.Millisecond) // burn part of the budget
		_, err := pool.Call(ctx, "b:rpc", 1, nil)
		return nil, err
	})
	la, err := n.Host("a").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	aSrv.Start(la)
	defer aSrv.Close()

	c := dialTest(t, n, "a:rpc")
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, 1, nil); err != nil {
		t.Fatal(err)
	}
	got := <-bBudget
	if got <= 0 {
		t.Fatal("B saw no deadline; budget was not propagated through A")
	}
	if got > 280*time.Millisecond {
		t.Errorf("B saw budget %v, want visibly less than the client's 300ms", got)
	}
}

// TestStalledClientIsCut pins the slowloris fix: a peer that begins a
// frame and stalls mid-header must have its connection closed once the
// stall timeout lapses, while byte-free idle connections live on.
func TestStalledClientIsCut(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	s := NewServer()
	s.Handle(mEcho, func(_ context.Context, body []byte) ([]byte, error) { return body, nil })
	s.SetStallTimeout(50 * time.Millisecond)
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	defer s.Close()

	// An idle connection (no bytes at all) must survive far past the
	// stall timeout and still work afterwards.
	idle := dialTest(t, n, "srv:rpc")
	time.Sleep(150 * time.Millisecond)
	if _, err := idle.Call(context.Background(), mEcho, []byte("still here")); err != nil {
		t.Fatalf("idle connection was cut: %v", err)
	}

	// A mid-frame stall — kind byte plus half the id, then silence —
	// must get the connection closed.
	raw, err := n.Host("cli").Dial("srv:rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{kindRequest, 0x01, 0x02, 0x03}); err != nil {
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
	case <-time.After(2 * time.Second):
		t.Fatal("stalled connection was not cut within 2s")
	}
}

// TestLazyDeadlineContext drives the handler context a budgeted request
// gets (deadlineCtx) through real calls. The budget rides on the ctx
// given to Go and the caller waits without one, so every expiry seen
// here is the server's.
func TestLazyDeadlineContext(t *testing.T) {
	n := netsim.New(netsim.Fast())
	defer n.Close()
	s := NewServer()
	const (
		mSelect = iota + 1 // blocks on ctx.Done()
		mChild             // blocks on a context.WithCancel child
		mPoll              // never asks for Done: sleeps past the budget, reads Err
		mQuick             // returns at once, handing its ctx to the test
	)
	s.Handle(mSelect, func(ctx context.Context, _ []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return []byte("never woke"), nil
		}
	})
	s.Handle(mChild, func(ctx context.Context, _ []byte) ([]byte, error) {
		child, cancel := context.WithCancel(ctx)
		defer cancel()
		select {
		case <-child.Done():
			return nil, context.Cause(child)
		case <-time.After(5 * time.Second):
			return []byte("child never cancelled"), nil
		}
	})
	s.Handle(mPoll, func(ctx context.Context, _ []byte) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, errors.New("expired on arrival")
		}
		dl, _ := ctx.Deadline()
		time.Sleep(time.Until(dl) + 5*time.Millisecond)
		return nil, ctx.Err()
	})
	leaked := make(chan context.Context, 1)
	s.Handle(mQuick, func(ctx context.Context, _ []byte) ([]byte, error) {
		leaked <- ctx
		return nil, nil
	})
	l, err := n.Host("srv").Listen("rpc")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(l)
	defer s.Close()
	c := dialTest(t, n, "srv:rpc")

	// Each blocking shape wakes at expiry and maps to statusExpired:
	// the caller sees context.DeadlineExceeded, not a ServerError.
	for _, m := range []uint32{mSelect, mChild, mPoll} {
		expired := M.CallsExpired.Value()
		ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
		start := time.Now()
		resp, err := c.Go(ctx, m, nil, nil).Wait(context.Background())
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || IsServerError(err) {
			t.Errorf("method %d: resp %q, err %v; want context.DeadlineExceeded from the server", m, resp, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("method %d: woke after %v", m, el)
		}
		if got := M.CallsExpired.Value() - expired; got != 1 {
			t.Errorf("method %d: CallsExpired moved by %d, want 1", m, got)
		}
	}

	// A handler that returns in time leaves no armed context behind: it
	// is stopped like a cancelled WithDeadline, well before its budget.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.Call(ctx, mQuick, nil); err != nil {
		t.Fatal(err)
	}
	hctx := <-leaked
	select {
	case <-hctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("handler context still live after the handler returned")
	}
	if err := hctx.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("returned handler's ctx.Err() = %v, want Canceled", err)
	}
}

// TestLazyDeadlineContextUnit pins the type's own contract: the
// deadline is min(parent, budget), nothing is armed until Done is
// asked for, and parent cancellation still reaches it.
func TestLazyDeadlineContextUnit(t *testing.T) {
	parent, cancelParent := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancelParent()
	far := withLazyDeadline(parent, time.Now().Add(2*time.Hour))
	if dl, ok := far.Deadline(); !ok || time.Until(dl) > time.Hour {
		t.Errorf("deadline %v beyond the parent's", dl)
	}
	if err := far.Err(); err != nil || far.timer != nil || far.done != nil {
		t.Errorf("Deadline/Err armed the context: err %v timer %v", err, far.timer)
	}
	done := far.Done()
	if far.timer == nil {
		t.Error("Done did not arm the timer")
	}
	cancelParent()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("parent cancellation did not reach the lazy context")
	}
	if err := far.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after parent cancel = %v", err)
	}
	far.finish(context.Canceled) // idempotent

	// Past its deadline with Done never asked for: Err still says so,
	// and a late Done is born closed.
	late := withLazyDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	if err := late.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Err past the deadline = %v", err)
	}
	select {
	case <-late.Done():
	default:
		t.Error("Done of an expired context is open")
	}
	if late.timer != nil {
		t.Error("expired context armed a timer")
	}
}
