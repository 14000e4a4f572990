package rpc

// Response sinks. A call's OK response body is consumed straight off
// the connection by the call's Sink, on the client's read loop. The
// default sink copies the body into a pooled Buf that Wait returns; a
// caller that knows where the bytes belong — a page fetch decoding into
// the read's buffer — passes its own, so the payload crosses client
// memory once, from the kernel into its destination, and never touches
// a Buf.
//
// A caller-supplied sink writes caller memory until its call completes.
// A caller that stops waiting earlier (its ctx is done, a hedge won)
// must Detach the call before it reuses that memory: Detach returns
// once the sink has finished or can no longer run (Pending.Detach).

import (
	"encoding/binary"
	"errors"
	"io"
	"os"

	"blob/internal/wire"
)

// errDetached ends a sink's reads once its call has been detached.
var errDetached = errors.New("rpc: call detached")

// Sink consumes one OK response body. ReadBody runs on the connection's
// read loop, so it only reads the body and must not retain b past its
// return. Whatever it leaves unread is discarded; an error it returns
// becomes the call's error.
type Sink interface {
	ReadBody(b *Body) error
}

// Body is one message body as a Sink reads it, bounded to the body's
// length: off the connection — what the read-ahead already holds, then
// straight into the caller's slice — or out of memory, for a body a
// caller already holds (BodyOf), so one parser serves both.
type Body struct {
	fr   *frameReader // the connection; nil for a body in memory
	cl   *call        // the call whose sink reads the body off fr
	mem  []byte       // the unread bytes of a body in memory
	left int          // unread body bytes
	err  error        // the connection failed mid-body
}

// BodyOf returns a Body over p, for running a Sink's parser over bytes
// already in memory.
func BodyOf(p []byte) Body { return Body{mem: p, left: len(p)} }

// Len returns the number of unread body bytes.
func (b *Body) Len() int { return b.left }

// check lets a read go ahead unless the connection has failed or the
// call has been detached.
func (b *Body) check() error {
	if b.err != nil {
		return b.err
	}
	if b.cl != nil && b.cl.state.Load() == sinkDetaching {
		return errDetached
	}
	return nil
}

// fail turns a connection read error into the sink's error. A read that
// Detach interrupted leaves the connection sound, so only another error
// is recorded, and every later read returns it.
func (b *Body) fail(err error) error {
	if b.cl != nil && b.cl.state.Load() == sinkDetaching && errors.Is(err, os.ErrDeadlineExceeded) {
		return errDetached
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the connection ended mid-body
	}
	b.err = err
	return err
}

// ReadByte reads one body byte.
func (b *Body) ReadByte() (byte, error) {
	if err := b.check(); err != nil {
		return 0, err
	}
	if b.left == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	var c byte
	if b.fr == nil {
		c, b.mem = b.mem[0], b.mem[1:]
	} else {
		var err error
		if c, err = b.fr.br.ReadByte(); err != nil {
			return 0, b.fail(err)
		}
	}
	b.left--
	return c, nil
}

// ReadFull fills p with the next len(p) body bytes. Off a connection it
// copies only what the read-ahead already holds and reads the rest
// straight into p.
func (b *Body) ReadFull(p []byte) error {
	if err := b.check(); err != nil {
		return err
	}
	if len(p) > b.left {
		return io.ErrUnexpectedEOF
	}
	if b.fr == nil {
		b.mem = b.mem[copy(p, b.mem):]
		b.left -= len(p)
		return nil
	}
	n, err := b.fr.readFull(p)
	b.left -= n
	if err != nil {
		return b.fail(err)
	}
	return nil
}

// Discard skips the next n body bytes.
func (b *Body) Discard(n int) error {
	if err := b.check(); err != nil {
		return err
	}
	if n > b.left {
		return io.ErrUnexpectedEOF
	}
	if b.fr == nil {
		b.mem = b.mem[n:]
		b.left -= n
		return nil
	}
	k, err := b.fr.br.Discard(n)
	b.left -= k
	if err != nil {
		return b.fail(err)
	}
	return nil
}

// Uvarint reads a uvarint under wire.Reader's rules: at most 64 bits,
// minimally encoded. What it returns is unchecked: bound a count or a
// length with wire.CheckCount or wire.CheckLength before it sizes
// anything.
func (b *Body) Uvarint() (uint64, error) {
	if err := b.check(); err != nil {
		return 0, err
	}
	k := min(b.left, binary.MaxVarintLen64)
	p := b.mem
	if b.fr != nil {
		var err error
		if p, err = b.fr.br.Peek(k); err != nil {
			return 0, b.fail(err)
		}
	}
	r := wire.NewReader(p[:k])
	v := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	return v, b.Discard(k - r.Remaining())
}
