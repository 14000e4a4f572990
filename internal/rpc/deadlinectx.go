package rpc

import (
	"context"
	"sync"
	"time"
)

// deadlineCtx is the handler context of a request that carries a
// deadline budget. It behaves like context.WithDeadline(parent, d) —
// Deadline reports min(parent's, d), Err turns DeadlineExceeded once d
// has passed, Done closes at d or when the parent is done — but arms
// its timer and hooks the parent only when somebody first asks for
// Done. Nearly every handler only reads the deadline (a nested call
// turns it into the shrunken budget it sends on) or ignores the context
// altogether, and a runtime timer plus a parent registration built and
// torn down per request was the largest single cost of serving a small
// metadata request (docs/robustness.md, "Deadline propagation").
type deadlineCtx struct {
	context.Context // the parent: values, and its own cancellation
	deadline        time.Time

	mu         sync.Mutex
	err        error         // set once, before done closes
	done       chan struct{} // made by the first Done
	timer      *time.Timer
	stopParent func() bool
}

func withLazyDeadline(parent context.Context, d time.Time) *deadlineCtx {
	if pd, ok := parent.Deadline(); ok && pd.Before(d) {
		d = pd
	}
	return &deadlineCtx{Context: parent, deadline: d}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *deadlineCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.endLocked(c.lapsed())
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		} else {
			c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.finish(context.DeadlineExceeded) })
			c.stopParent = context.AfterFunc(c.Context, func() { c.finish(c.Context.Err()) })
		}
	}
	return c.done
}

func (c *deadlineCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.endLocked(c.lapsed()) // by the clock: nobody may have asked for Done
	}
	return c.err
}

// lapsed reports why the context is over as far as the parent and the
// clock can tell, nil while it is not.
func (c *deadlineCtx) lapsed() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// endLocked ends the context with err, if it is one and the context
// has not ended already, closing done if anybody holds it. The caller
// holds c.mu.
func (c *deadlineCtx) endLocked(err error) {
	if c.err == nil && err != nil {
		c.err = err
		if c.done != nil {
			close(c.done)
		}
	}
}

// finish ends the context with err unless it has ended already, and
// releases the timer and the parent hook. The server calls it with
// context.Canceled when the handler returns, as it would call the
// CancelFunc of context.WithDeadline.
func (c *deadlineCtx) finish(err error) {
	c.mu.Lock()
	c.endLocked(err)
	timer, stopParent := c.timer, c.stopParent
	c.mu.Unlock()
	if timer != nil {
		timer.Stop()
		stopParent()
	}
}
