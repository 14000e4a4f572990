// Package netsim provides an in-memory network with configurable link
// latency and per-NIC bandwidth metering. It substitutes for the paper's
// Grid'5000 cluster (1 Gbit/s Ethernet: 117.5 MB/s measured TCP rate,
// 0.1 ms latency): every process in the reproduced system talks over
// net.Conn, so the same binaries run over netsim in a single process or
// over real TCP across machines.
//
// The model is deliberately simple but captures the two effects the
// paper's evaluation measures:
//
//   - per-message latency: each written frame becomes readable at the
//     receiver only after the configured one-way delay, so a request/
//     response exchange costs a round trip, and batching several logical
//     calls into one frame (the paper's aggregated RPC) saves latency;
//   - NIC saturation: each simulated host owns a token-bucket NIC.
//     Writing charges both the sender's and the receiver's NIC, so many
//     clients hammering one provider share that provider's bandwidth —
//     which is what bounds per-client throughput in Figure 3(c).
package netsim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"
)

// Config describes the simulated fabric.
type Config struct {
	// Latency is the one-way delivery delay for every frame.
	Latency time.Duration
	// BandwidthBps is the per-NIC capacity in bytes per second.
	// Zero means unlimited.
	BandwidthBps float64
}

// TimeScale is the simulation time dilation: 1 simulated time unit =
// TimeScale real time units. The paper's cluster has 0.1 ms latency, but
// the Go runtime's netpoller rounds every sub-millisecond timer wait up
// to a whole millisecond (runtime/netpoll_epoll.go as of go1.24), so
// sub-millisecond delays cannot be slept accurately. Dilating all
// simulated delays by 10x keeps every materialized sleep comfortably
// above the granularity floor while preserving the ratios the
// experiments measure (the latency x bandwidth product is invariant).
// Durations measured over a Grid5000() fabric therefore compare to the
// paper's after dividing by TimeScale; bandwidths after multiplying.
const TimeScale = 10

// Grid5000 reproduces the paper's measured testbed parameters — 0.1 ms
// latency, 117.5 MB/s TCP throughput on 1 Gbit/s Ethernet — dilated by
// TimeScale (see its comment).
func Grid5000() Config {
	return Config{
		Latency:      TimeScale * 100 * time.Microsecond,
		BandwidthBps: 117.5e6 / TimeScale,
	}
}

// Fast returns a configuration with no latency and no bandwidth cap,
// for unit tests that exercise logic rather than performance shape.
func Fast() Config { return Config{} }

// Net is a simulated network fabric. Hosts are created on demand; each
// host has one NIC. Addresses take the form "host:port".
type Net struct {
	cfg Config

	mu        sync.Mutex
	listeners map[string]*listener
	nics      map[string]*nic
	closed    bool

	// Injected faults (docs/robustness.md): live connections consult
	// these maps on every frame, so installing or clearing a fault takes
	// effect immediately — including for connections dialed before it.
	faultMu    sync.Mutex
	linkFaults map[linkKey]Fault
	hostFaults map[string]Fault
	addrFaults map[string]Fault
}

// linkKey identifies one directed link for fault injection.
type linkKey struct{ from, to string }

// New creates an empty fabric.
func New(cfg Config) *Net {
	return &Net{
		cfg:        cfg,
		listeners:  make(map[string]*listener),
		nics:       make(map[string]*nic),
		linkFaults: make(map[linkKey]Fault),
		hostFaults: make(map[string]Fault),
		addrFaults: make(map[string]Fault),
	}
}

// Fault describes injected link misbehaviour — the gray failures the
// robustness machinery (deadlines, hedges, breakers; docs/robustness.md)
// is built to absorb. The zero Fault injects nothing.
type Fault struct {
	// ExtraLatency delays every frame's delivery by this much on top of
	// the fabric's configured latency (a slow or overloaded peer).
	ExtraLatency time.Duration
	// Jitter adds a further uniformly random delay in [0, Jitter) per
	// frame (an erratic peer).
	Jitter time.Duration
	// DropProb resets the connection with this per-frame probability:
	// the frame is not delivered and the connection dies, as a TCP RST
	// would — never silent byte loss, which a stream transport cannot
	// produce (a flaky link).
	DropProb float64
	// Stall blocks every frame indefinitely — the connection stays up
	// but nothing moves, the classic gray failure — until the fault is
	// cleared (writers then resume) or the connection is closed.
	Stall bool
	// RefuseDial makes new dials across the faulted link fail with
	// ErrRefused while established connections keep working.
	RefuseDial bool
}

// active reports whether the fault injects anything.
func (f Fault) active() bool {
	return f.ExtraLatency > 0 || f.Jitter > 0 || f.DropProb > 0 || f.Stall || f.RefuseDial
}

// SetLinkFault installs f on the directed link from -> to (replacing
// any previous link fault there). Frames already in flight keep their
// original delivery time.
func (n *Net) SetLinkFault(from, to string, f Fault) {
	n.faultMu.Lock()
	if f.active() {
		n.linkFaults[linkKey{from, to}] = f
	} else {
		delete(n.linkFaults, linkKey{from, to})
	}
	n.faultMu.Unlock()
}

// SetHostFault installs f on every link touching host, in both
// directions (a sick machine rather than a sick cable).
func (n *Net) SetHostFault(host string, f Fault) {
	n.faultMu.Lock()
	if f.active() {
		n.hostFaults[host] = f
	} else {
		delete(n.hostFaults, host)
	}
	n.faultMu.Unlock()
}

// SetAddrFault installs f on every link whose either endpoint is the
// service bound to addr (host:port), in both directions. It scopes a
// fault to one service on a host that runs several — the co-located
// data provider can be sick while the meta provider beside it stays
// healthy.
func (n *Net) SetAddrFault(addr string, f Fault) {
	n.faultMu.Lock()
	if f.active() {
		n.addrFaults[addr] = f
	} else {
		delete(n.addrFaults, addr)
	}
	n.faultMu.Unlock()
}

// ClearLinkFault removes the directed link fault from -> to.
func (n *Net) ClearLinkFault(from, to string) { n.SetLinkFault(from, to, Fault{}) }

// ClearHostFault removes host's fault.
func (n *Net) ClearHostFault(host string) { n.SetHostFault(host, Fault{}) }

// ClearAddrFault removes addr's fault.
func (n *Net) ClearAddrFault(addr string) { n.SetAddrFault(addr, Fault{}) }

// Heal removes every installed fault; stalled writers resume at their
// next poll tick.
func (n *Net) Heal() {
	n.faultMu.Lock()
	clear(n.linkFaults)
	clear(n.hostFaults)
	clear(n.addrFaults)
	n.faultMu.Unlock()
}

// faultFor combines the faults affecting one frame between the given
// endpoints: the directed link fault between the hosts, both hosts'
// faults, and both endpoint addresses' faults. Delays add, drop
// probabilities and booleans take the worst case.
func (n *Net) faultFor(src, dst, srcAddr, dstAddr string) (Fault, bool) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	if len(n.linkFaults) == 0 && len(n.hostFaults) == 0 && len(n.addrFaults) == 0 {
		return Fault{}, false
	}
	var out Fault
	found := false
	for _, f := range []Fault{n.linkFaults[linkKey{src, dst}], n.hostFaults[src], n.hostFaults[dst],
		n.addrFaults[srcAddr], n.addrFaults[dstAddr]} {
		if !f.active() {
			continue
		}
		found = true
		out.ExtraLatency += f.ExtraLatency
		out.Jitter += f.Jitter
		if f.DropProb > out.DropProb {
			out.DropProb = f.DropProb
		}
		out.Stall = out.Stall || f.Stall
		out.RefuseDial = out.RefuseDial || f.RefuseDial
	}
	return out, found
}

// faultDelay applies the current fault on src->dst for one frame about
// to be written on conn c: it blocks while the link is stalled,
// resets the connection on a drop, and otherwise returns the extra
// delivery delay to add to the frame.
func (n *Net) faultDelay(c *conn) (time.Duration, error) {
	for {
		f, ok := n.faultFor(c.srcHost, c.dstHost, c.local.String(), c.peer.String())
		if !ok {
			return 0, nil
		}
		if f.Stall {
			select {
			case <-c.wr.closed:
				return 0, io.ErrClosedPipe
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		if f.DropProb > 0 && rand.Float64() < f.DropProb {
			c.Close()
			return 0, io.ErrClosedPipe
		}
		d := f.ExtraLatency
		if f.Jitter > 0 {
			d += time.Duration(rand.Int63n(int64(f.Jitter)))
		}
		return d, nil
	}
}

// ErrRefused is returned by Dial when no listener is bound to the address.
var ErrRefused = errors.New("netsim: connection refused")

// ErrClosed is returned after the fabric or an endpoint has been closed.
var ErrClosed = errors.New("netsim: closed")

func hostOf(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

func (n *Net) nicFor(host string) *nic {
	n.mu.Lock()
	defer n.mu.Unlock()
	nc, ok := n.nics[host]
	if !ok {
		nc = &nic{bps: n.cfg.BandwidthBps}
		n.nics[host] = nc
	}
	return nc
}

// Host returns a dialing/listening endpoint bound to the named host.
// All connections made through the returned Host are metered by the
// host's single NIC.
func (n *Net) Host(name string) *Host {
	return &Host{net: n, name: name, nic: n.nicFor(name)}
}

// Close tears down the fabric: all listeners stop accepting.
func (n *Net) Close() {
	n.mu.Lock()
	ls := make([]*listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		ls = append(ls, l)
	}
	n.closed = true
	n.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
}

// Host is one simulated machine on the fabric.
type Host struct {
	net  *Net
	name string
	nic  *nic
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Listen binds a listener to "host:port".
func (h *Host) Listen(port string) (net.Listener, error) {
	addr := h.name + ":" + port
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if h.net.closed {
		return nil, ErrClosed
	}
	if _, busy := h.net.listeners[addr]; busy {
		return nil, fmt.Errorf("netsim: address %s already in use", addr)
	}
	l := &listener{
		net:     h.net,
		addr:    simAddr(addr),
		backlog: make(chan net.Conn, 128),
		done:    make(chan struct{}),
	}
	h.net.listeners[addr] = l
	return l, nil
}

// Dial connects to addr ("host:port"). The connection is metered by both
// this host's NIC and the target host's NIC.
func (h *Host) Dial(addr string) (net.Conn, error) {
	h.net.mu.Lock()
	l := h.net.listeners[addr]
	h.net.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	}
	if f, ok := h.net.faultFor(h.name, hostOf(addr), "", addr); ok && f.RefuseDial {
		return nil, fmt.Errorf("%w: %s (injected fault)", ErrRefused, addr)
	}
	remoteNIC := h.net.nicFor(hostOf(addr))
	cliEnd, srvEnd := newPipePair(
		h.net,
		h.net.cfg.Latency,
		h.nic, remoteNIC,
		simAddr(h.name+":0"), simAddr(addr),
	)
	// The backlog send and the done channel can both be ready (the
	// backlog is buffered), and a buffered conn on a dead listener
	// would strand its dialer forever — a crashed node must refuse, not
	// black-hole. Check done around the send; Close additionally drains
	// whatever a racing dial still deposited.
	select {
	case <-l.done:
		cliEnd.Close()
		srvEnd.Close()
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	default:
	}
	select {
	case l.backlog <- srvEnd:
		select {
		case <-l.done:
			cliEnd.Close()
			srvEnd.Close()
			return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
		default:
		}
		return cliEnd, nil
	case <-l.done:
		cliEnd.Close()
		srvEnd.Close()
		return nil, fmt.Errorf("%w: %s", ErrRefused, addr)
	}
}

type listener struct {
	net     *Net
	addr    simAddr
	backlog chan net.Conn
	done    chan struct{}
	once    sync.Once
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, string(l.addr))
		l.net.mu.Unlock()
		// Drain connections stranded in the backlog so their dialers
		// see a reset instead of waiting on an accept that will never
		// come (Dial rechecks done after its send, so nothing new can
		// land here once the drain finishes).
		for {
			select {
			case c := <-l.backlog:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *listener) Addr() net.Addr { return l.addr }

type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }

// nic models a network interface as a virtual-finish-time token bucket.
// Each write advances the NIC's horizon by the serialization time of the
// written bytes; the writer sleeps until its bytes would have drained.
// Concurrent connections on the same host therefore share the capacity
// fairly, which is the contention behaviour the throughput experiment
// (Figure 3c) depends on.
type nic struct {
	mu   sync.Mutex
	bps  float64
	next time.Time
}

// reserve accounts for n bytes and returns how long the caller must wait
// before the bytes are considered on the wire.
func (c *nic) reserve(n int) time.Duration {
	if c == nil || c.bps <= 0 {
		return 0
	}
	d := time.Duration(float64(n) / c.bps * float64(time.Second))
	now := time.Now()
	c.mu.Lock()
	if c.next.Before(now) {
		c.next = now
	}
	c.next = c.next.Add(d)
	wait := c.next.Sub(now)
	c.mu.Unlock()
	return wait
}
