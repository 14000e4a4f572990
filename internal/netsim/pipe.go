package netsim

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// segment is one written frame in flight: its payload and the simulated
// time at which it becomes visible to the reader.
type segment struct {
	data []byte
	at   time.Time
}

// pipeBuf is a unidirectional byte stream with delayed delivery.
// Writers enqueue segments stamped now+latency; readers block until the
// head segment's timestamp has passed. Capacity is bounded so a fast
// writer experiences backpressure like a TCP send buffer would.
type pipeBuf struct {
	ch     chan segment
	closed chan struct{}
	once   sync.Once

	mu      sync.Mutex
	pending []byte    // partially consumed head segment
	at      time.Time // when pending becomes visible
}

func newPipeBuf() *pipeBuf {
	return &pipeBuf{
		ch:     make(chan segment, 256),
		closed: make(chan struct{}),
	}
}

func (b *pipeBuf) close() {
	b.once.Do(func() { close(b.closed) })
}

func (b *pipeBuf) write(p []byte, at time.Time) error {
	data := make([]byte, len(p))
	copy(data, p)
	return b.writeOwned(data, at)
}

// writeOwned enqueues a segment whose backing slice the caller hands
// over (no defensive copy) — the vectored-write path coalesces a whole
// frame into one owned buffer and delivers it as a single segment.
func (b *pipeBuf) writeOwned(data []byte, at time.Time) error {
	select {
	case b.ch <- segment{data: data, at: at}:
		return nil
	case <-b.closed:
		return io.ErrClosedPipe
	}
}

// errDeadlineMoved ends a read whose deadline was changed while it
// waited; conn.Read retries it under the new one.
var errDeadlineMoved = errors.New("netsim: read deadline moved")

// read delivers available bytes, honouring segment timestamps and the
// deadline (zero means none). A read still waiting when moved is closed
// returns errDeadlineMoved.
func (b *pipeBuf) read(p []byte, deadline time.Time, moved <-chan struct{}) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()

	var timeout <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return 0, os.ErrDeadlineExceeded
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	if len(b.pending) == 0 {
		var seg segment
		select {
		case seg = <-b.ch:
		case <-b.closed:
			// Drain anything already queued before reporting EOF.
			select {
			case seg = <-b.ch:
			default:
				return 0, io.EOF
			}
		case <-timeout:
			return 0, os.ErrDeadlineExceeded
		case <-moved:
			return 0, errDeadlineMoved
		}
		b.pending, b.at = seg.data, seg.at
	}
	if wait := time.Until(b.at); wait > 0 {
		// The head segment is still in flight.
		t := time.NewTimer(wait)
		defer t.Stop()
		b.mu.Unlock()
		var err error
		select {
		case <-t.C:
		case <-timeout:
			err = os.ErrDeadlineExceeded
		case <-moved:
			err = errDeadlineMoved
		}
		b.mu.Lock()
		if err != nil {
			return 0, err
		}
	}

	n := copy(p, b.pending)
	b.pending = b.pending[n:]
	return n, nil
}

// conn is one endpoint of a simulated duplex connection.
type conn struct {
	net          *Net // fault lookup (nil in direct newPipePair tests)
	rd, wr       *pipeBuf
	local, peer  net.Addr
	srcHost      string
	dstHost      string
	latency      time.Duration
	srcNIC       *nic
	dstNIC       *nic
	readDeadline deadline
	closeOnce    sync.Once
}

// newPipePair creates the two endpoints of a connection between hosts.
// Frames written on either end are charged to both NICs, delivered
// after the configured latency, and subjected to whatever faults the
// fabric has installed on the link at write time.
func newPipePair(n *Net, latency time.Duration, cliNIC, srvNIC *nic, cliAddr, srvAddr net.Addr) (cli, srv net.Conn) {
	c2s := newPipeBuf()
	s2c := newPipeBuf()
	cliHost, srvHost := hostOf(cliAddr.String()), hostOf(srvAddr.String())
	cli = &conn{
		net: n, rd: s2c, wr: c2s,
		local: cliAddr, peer: srvAddr,
		srcHost: cliHost, dstHost: srvHost,
		latency: latency, srcNIC: cliNIC, dstNIC: srvNIC,
	}
	srv = &conn{
		net: n, rd: c2s, wr: s2c,
		local: srvAddr, peer: cliAddr,
		srcHost: srvHost, dstHost: cliHost,
		latency: latency, srcNIC: srvNIC, dstNIC: cliNIC,
	}
	return cli, srv
}

// injectFault applies the link's current fault to one outbound frame:
// stall, reset, or an extra delivery delay.
func (c *conn) injectFault() (time.Duration, error) {
	if c.net == nil {
		return 0, nil
	}
	return c.net.faultDelay(c)
}

// Read honours the read deadline as net.Conn has it: a deadline set
// while the read waits applies to it too.
func (c *conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		t, moved := c.readDeadline.load()
		n, err := c.rd.read(p, t, moved)
		if err != errDeadlineMoved {
			return n, err
		}
	}
}

// minMaterializedSleep is the smallest NIC wait actually slept. Shorter
// waits stay as debt in the NIC's virtual-finish-time horizon — they are
// still accounted exactly, and once the horizon runs far enough ahead
// the accumulated wait crosses the threshold and is slept. This keeps
// the rate limit accurate under sustained load without issuing
// sub-granularity sleeps the kernel would inflate.
const minMaterializedSleep = time.Millisecond

func (c *conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	extra, err := c.injectFault()
	if err != nil {
		return 0, err
	}
	// Serialization delay on both NICs: the sender blocks until its NIC
	// would have drained the frame (backpressure), and the receive NIC's
	// horizon advances too so inbound and outbound traffic contend.
	w1 := c.srcNIC.reserve(len(p))
	w2 := c.dstNIC.reserve(len(p))
	wait := w1
	if w2 > wait {
		wait = w2
	}
	if wait >= minMaterializedSleep {
		time.Sleep(wait)
	}
	if err := c.wr.write(p, time.Now().Add(c.latency+extra)); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteBuffers implements the rpc layer's vectored-write fast path
// (rpc.BuffersWriter): the whole scatter-gather frame is coalesced into
// one owned segment, charged to both NICs once and delivered after one
// link latency — exactly what a writev on a real socket would cost,
// without a per-segment pass through the simulated pipe.
func (c *conn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	total := 0
	for _, b := range *bufs {
		total += len(b)
	}
	if total == 0 {
		*bufs = nil
		return 0, nil
	}
	data := make([]byte, 0, total)
	for _, b := range *bufs {
		data = append(data, b...)
	}
	*bufs = nil
	extra, err := c.injectFault()
	if err != nil {
		return 0, err
	}
	w1 := c.srcNIC.reserve(total)
	w2 := c.dstNIC.reserve(total)
	wait := w1
	if w2 > wait {
		wait = w2
	}
	if wait >= minMaterializedSleep {
		time.Sleep(wait)
	}
	if err := c.wr.writeOwned(data, time.Now().Add(c.latency+extra)); err != nil {
		return 0, err
	}
	return int64(total), nil
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.close()
		c.rd.close()
	})
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.peer }

func (c *conn) SetDeadline(t time.Time) error {
	c.readDeadline.store(t)
	return nil
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.readDeadline.store(t)
	return nil
}

// SetWriteDeadline is accepted but not enforced: simulated writes block
// only for the metered serialization time, which is always finite.
func (c *conn) SetWriteDeadline(time.Time) error { return nil }

// deadline is a connection's read deadline. Every store closes the
// channel load handed out with the old value, so a read waiting under
// it wakes and picks up the new one.
type deadline struct {
	mu    sync.Mutex
	t     time.Time
	moved chan struct{} // closed by the next store; nil until a load
}

func (d *deadline) store(t time.Time) {
	d.mu.Lock()
	d.t = t
	if d.moved != nil {
		close(d.moved)
		d.moved = nil
	}
	d.mu.Unlock()
}

func (d *deadline) load() (time.Time, <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.moved == nil {
		d.moved = make(chan struct{})
	}
	return d.t, d.moved
}
