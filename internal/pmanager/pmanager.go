// Package pmanager implements the provider manager: the registry of data
// providers and the page-placement policy. On each WRITE the client asks
// the provider manager for one group of k+m distinct providers per
// rs(k,m) stripe of the write — under rs(1,m), a page and its m copies;
// the manager picks providers "based on some strategy that favors
// global load balancing" (paper §III.A).
//
// Placement is round-robin over the live providers, which spreads every
// burst of pages evenly across the deployment. Providers report load
// through periodic heartbeats (the monitor reads it back through
// Members); providers that miss heartbeats are excluded from placement
// until they reappear.
package pmanager

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"blob/internal/erasure"
	dataprovider "blob/internal/provider"
	"blob/internal/rpc"
	"blob/internal/trace"
	"blob/internal/wire"
)

// RPC method identifiers for the provider manager service (0x04xx block).
const (
	MRegister  = 0x0401
	MHeartbeat = 0x0402
	MAllocate  = 0x0403
	MMembers   = 0x0405
	// 0x0404 (the client-only provider listing, which MMembers answers)
	// and 0x0406 (the heartbeat digest relay's bulk fetch) are retired;
	// left unassigned so an old peer's call cannot reach a new method.
)

func init() {
	rpc.RegisterMethodName(MRegister, "pmanager.MRegister")
	rpc.RegisterMethodName(MHeartbeat, "pmanager.MHeartbeat")
	rpc.RegisterMethodName(MAllocate, "pmanager.MAllocate")
	rpc.RegisterMethodName(MMembers, "pmanager.MMembers")
}

// ErrNoProviders is returned when placement cannot be satisfied.
var ErrNoProviders = errors.New("pmanager: no live data providers")

// ProviderInfo describes a registered provider to clients.
type ProviderInfo struct {
	ID   uint32
	Addr string
}

// provider is the manager's record of one data provider.
type provider struct {
	info      ProviderInfo
	capacity  int64
	bytesUsed int64
	activeOps int64
	lastSeen  time.Time
	// deadNotified marks that a DeathWatch pass already reported this
	// provider silent; a heartbeat or re-registration re-arms it.
	deadNotified bool
}

// Manager is the provider manager service.
type Manager struct {
	hbTimeout  time.Duration // 0 disables liveness filtering
	red        erasure.Redundancy
	rrCounter  uint64
	tracer     *trace.Tracer
	mu         sync.Mutex
	byID       map[uint32]*provider
	nextID     uint32
	epoch      uint64
	allocCalls uint64
}

// Config parameterizes a Manager.
type Config struct {
	// HeartbeatTimeout excludes providers silent for longer than this
	// from placement. Zero disables the filter (useful in tests and
	// single-process clusters where processes cannot silently die).
	HeartbeatTimeout time.Duration
	// Redundancy is the deployment's advertised redundancy mode
	// (docs/erasure.md), which connecting clients adopt for new blobs
	// unless they override it: rs(k,m), or rs(1,m) for 1+m copies of
	// each page. The zero value advertises rs(1,0). The manager itself
	// only advertises the mode — placement always yields distinct
	// providers per group, which is exactly what a stripe needs.
	Redundancy erasure.Redundancy
	// Tracer, if set, records membership transitions (heartbeat
	// deaths, registrations) for the monitor plane.
	Tracer *trace.Tracer
}

// New creates a Manager.
func New(cfg Config) *Manager {
	if cfg.Redundancy == (erasure.Redundancy{}) {
		cfg.Redundancy.K = 1
	}
	return &Manager{
		hbTimeout: cfg.HeartbeatTimeout,
		red:       cfg.Redundancy,
		tracer:    cfg.Tracer,
		byID:      make(map[uint32]*provider),
		nextID:    1,
	}
}

// Redundancy returns the deployment's advertised redundancy mode.
func (m *Manager) Redundancy() erasure.Redundancy { return m.red }

// Register adds (or re-registers) a provider, returning its ID.
func (m *Manager) Register(addr string, capacity int64) uint32 {
	m.mu.Lock()
	for _, p := range m.byID {
		if p.info.Addr == addr {
			p.capacity = capacity
			p.lastSeen = time.Now()
			wasDead := p.deadNotified
			p.deadNotified = false
			id, epoch := p.info.ID, m.epoch
			m.mu.Unlock()
			if wasDead {
				m.tracer.Emit(trace.SevInfo, trace.MembershipRefresh, int64(epoch),
					"provider %d (%s) re-registered after death", id, addr)
			}
			return id
		}
	}
	id := m.nextID
	m.nextID++
	m.byID[id] = &provider{
		info:     ProviderInfo{ID: id, Addr: addr},
		capacity: capacity,
		lastSeen: time.Now(),
	}
	m.epoch++
	epoch := m.epoch
	m.mu.Unlock()
	m.tracer.Emit(trace.SevInfo, trace.MembershipRefresh, int64(epoch),
		"provider %d (%s) registered; epoch %d", id, addr, epoch)
	return id
}

// Heartbeat records a provider's load report and returns whether the id
// is known. Unknown IDs are ignored (the provider should re-register
// after a manager restart).
func (m *Manager) Heartbeat(id uint32, bytesUsed, activeOps int64) (known bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.byID[id]
	if !ok {
		return false
	}
	p.bytesUsed = bytesUsed
	p.activeOps = activeOps
	p.lastSeen = time.Now()
	p.deadNotified = false
	return true
}

// DeathWatch scans for providers that stopped heartbeating and calls
// onDeath once per detected death (a provider that resumes heartbeats
// re-arms). It blocks until stop closes, so callers run it in a
// goroutine; a manager without a heartbeat timeout has no liveness
// signal and returns immediately. The repair pipeline hangs off this:
// the cluster (and blobnode's pmanager role) wire onDeath to trigger an
// immediate repair pass instead of waiting out the RepairInterval
// timer, cutting the window a second failure could widen into data
// loss.
func (m *Manager) DeathWatch(stop <-chan struct{}, onDeath func(id uint32)) {
	if m.hbTimeout <= 0 || onDeath == nil {
		return
	}
	scan := m.hbTimeout / 4
	if scan <= 0 {
		scan = m.hbTimeout
	}
	t := time.NewTicker(scan)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		var dead []uint32
		m.mu.Lock()
		cutoff := time.Now().Add(-m.hbTimeout)
		for _, p := range m.byID {
			if !p.deadNotified && p.lastSeen.Before(cutoff) {
				p.deadNotified = true
				dead = append(dead, p.info.ID)
			}
		}
		m.mu.Unlock()
		for _, id := range dead {
			m.tracer.Emit(trace.SevWarn, trace.HeartbeatDeath, int64(id),
				"provider %d silent past %s; excluded from placement", id, m.hbTimeout)
			m.tracer.Emit(trace.SevInfo, trace.DeathWatchTrigger, int64(id),
				"triggering repair for dead provider %d", id)
			onDeath(id)
		}
	}
}

// live returns providers considered alive, under the lock.
func (m *Manager) liveLocked() []*provider {
	out := make([]*provider, 0, len(m.byID))
	cutoff := time.Time{}
	if m.hbTimeout > 0 {
		cutoff = time.Now().Add(-m.hbTimeout)
	}
	for _, p := range m.byID {
		if m.hbTimeout > 0 && p.lastSeen.Before(cutoff) {
			continue
		}
		out = append(out, p)
	}
	// Deterministic order for reproducible round-robin.
	sort.Slice(out, func(a, b int) bool { return out[a].info.ID < out[b].info.ID })
	return out
}

// Allocate picks placement for n groups of r distinct providers each —
// a client asks for one group per stripe, of k+m slots. The result is a
// flat slice of n*r provider IDs: group i occupies positions
// [i*r, (i+1)*r), and r is capped at the live provider count. The
// second return value maps every used ID to its address.
func (m *Manager) Allocate(n, r int) ([]uint32, map[uint32]string, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("pmanager: invalid page count %d", n)
	}
	if r < 1 {
		return nil, nil, fmt.Errorf("pmanager: invalid group size %d", r)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.allocCalls++
	live := m.liveLocked()
	if len(live) == 0 {
		return nil, nil, ErrNoProviders
	}
	if r > len(live) {
		r = len(live)
	}
	ids := make([]uint32, 0, n*r)
	addrs := make(map[uint32]string)
	pick := func(exclude map[uint32]bool) *provider {
		for range live {
			p := live[m.rrCounter%uint64(len(live))]
			m.rrCounter++
			if !exclude[p.info.ID] {
				return p
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		used := make(map[uint32]bool, r)
		for j := 0; j < r; j++ {
			p := pick(used)
			if p == nil {
				return nil, nil, ErrNoProviders
			}
			used[p.info.ID] = true
			ids = append(ids, p.info.ID)
			addrs[p.info.ID] = p.info.Addr
		}
	}
	return ids, addrs, nil
}

// Member is one registered provider as MMembers lists it, to clients
// and the monitor alike.
type Member struct {
	ID        uint32
	Addr      string
	Alive     bool
	LastSeen  time.Duration // age of the last heartbeat
	Capacity  int64
	BytesUsed int64
	ActiveOps int64
}

// Members returns the epoch and every registered provider (dead or
// alive) with its liveness and load — the one provider listing, which
// MMembers serves with the advertised redundancy.
func (m *Manager) Members() (uint64, []Member) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	out := make([]Member, 0, len(m.byID))
	for _, p := range m.byID {
		age := now.Sub(p.lastSeen)
		out = append(out, Member{
			ID:        p.info.ID,
			Addr:      p.info.Addr,
			Alive:     m.hbTimeout <= 0 || age <= m.hbTimeout,
			LastSeen:  age,
			Capacity:  p.capacity,
			BytesUsed: p.bytesUsed,
			ActiveOps: p.activeOps,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return m.epoch, out
}

// RegisterHandlers wires the manager's RPC methods onto srv.
func (m *Manager) RegisterHandlers(srv *rpc.Server) {
	srv.Handle(MRegister, m.handleRegister)
	srv.Handle(MHeartbeat, m.handleHeartbeat)
	srv.Handle(MAllocate, m.handleAllocate)
	srv.Handle(MMembers, m.handleMembers)
}

func (m *Manager) handleRegister(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	addr := r.String()
	capacity := r.Varint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pmanager register: %w", err)
	}
	id := m.Register(addr, capacity)
	w := wire.NewWriter(8)
	w.Uint32(id)
	return w.Bytes(), nil
}

func (m *Manager) handleHeartbeat(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	id := r.Uint32()
	bytesUsed := r.Varint()
	activeOps := r.Varint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pmanager heartbeat: %w", err)
	}
	w := wire.NewWriter(1)
	w.Bool(m.Heartbeat(id, bytesUsed, activeOps))
	return w.Bytes(), nil
}

func (m *Manager) handleMembers(_ context.Context, _ []byte) ([]byte, error) {
	epoch, members := m.Members()
	w := wire.NewWriter(32 + 48*len(members))
	w.Uint64(epoch)
	w.Uint8(uint8(m.red.K))
	w.Uint8(uint8(m.red.M))
	w.Uvarint(uint64(len(members)))
	for _, mb := range members {
		w.Uint32(mb.ID)
		w.String(mb.Addr)
		w.Bool(mb.Alive)
		w.Varint(int64(mb.LastSeen))
		w.Varint(mb.Capacity)
		w.Varint(mb.BytesUsed)
		w.Varint(mb.ActiveOps)
	}
	return w.Bytes(), nil
}

// maxAllocIDs bounds one MAllocate: its reply must fit in one frame.
const maxAllocIDs = rpc.MaxBody / 4

func (m *Manager) handleAllocate(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	n := r.Uvarint()
	rep := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pmanager allocate: %w", err)
	}
	// Each factor is bounded before the product, so n*rep cannot wrap.
	if n > maxAllocIDs || rep > maxAllocIDs || n*rep > maxAllocIDs {
		return nil, fmt.Errorf("pmanager allocate: %d groups x %d providers exceeds one reply frame", n, rep)
	}
	ids, addrs, err := m.Allocate(int(n), int(rep))
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(8 + 4*len(ids) + 24*len(addrs))
	w.Uint32Slice(ids)
	w.Uvarint(uint64(len(addrs)))
	for id, addr := range addrs {
		w.Uint32(id)
		w.String(addr)
	}
	return w.Bytes(), nil
}

// Client-side helpers.

// Allocation is a decoded MAllocate response.
type Allocation struct {
	// IDs holds n*r provider IDs; group i is IDs[i*r:(i+1)*r].
	IDs []uint32
	// Addrs maps each used provider ID to its RPC address.
	Addrs map[uint32]string
}

// EncodeAllocate builds an MAllocate request.
func EncodeAllocate(groups, size int) []byte {
	w := wire.NewWriter(8)
	w.Uvarint(uint64(groups))
	w.Uvarint(uint64(size))
	return w.Bytes()
}

// DecodeAllocation parses an MAllocate response.
func DecodeAllocation(body []byte) (Allocation, error) {
	r := wire.NewReader(body)
	var a Allocation
	a.IDs = r.Uint32Slice()
	n := r.Count(5) // id + address length
	a.Addrs = make(map[uint32]string, n)
	for i := 0; i < n; i++ {
		id := r.Uint32()
		a.Addrs[id] = r.String()
	}
	return a, r.Err()
}

// RegisterProvider announces a data provider to the manager at pmAddr.
func RegisterProvider(ctx context.Context, pool *rpc.Pool, pmAddr, addr string, capacity int64) (uint32, error) {
	w := wire.NewWriter(len(addr) + 12)
	w.String(addr)
	w.Varint(capacity)
	resp, err := pool.Call(ctx, pmAddr, MRegister, w.Bytes())
	if err != nil {
		return 0, fmt.Errorf("pmanager: register: %w", err)
	}
	r := wire.NewReader(resp)
	id := r.Uint32()
	return id, r.Err()
}

// SendHeartbeat reports a provider's load. known is false when the
// manager has no provider id (it restarted and lost its registry).
func SendHeartbeat(ctx context.Context, pool *rpc.Pool, pmAddr string, id uint32, bytesUsed, activeOps int64) (known bool, err error) {
	w := wire.NewWriter(24)
	w.Uint32(id)
	w.Varint(bytesUsed)
	w.Varint(activeOps)
	resp, err := pool.Call(ctx, pmAddr, MHeartbeat, w.Bytes())
	if err != nil {
		return false, err
	}
	return decodeHeartbeatReply(resp)
}

// decodeHeartbeatReply parses an MHeartbeat response.
func decodeHeartbeatReply(body []byte) (known bool, err error) {
	r := wire.NewReader(body)
	known = r.Bool()
	return known, r.Err()
}

// HeartbeatLoop reports data provider id's load to the manager at pmAddr
// every interval until stop closes, sending through pool — which need
// not dial from the provider's own host. Each beat reads the service
// svc returns afresh, so a provider restarted under the same id reports
// its new incarnation. A beat has max(interval, 1s) to land; a failed one goes to logf (when
// set) and the next beat retries.
func HeartbeatLoop(stop <-chan struct{}, pool *rpc.Pool, pmAddr string, id uint32, interval time.Duration,
	svc func() *dataprovider.Service, logf func(format string, args ...any)) {
	t := time.NewTicker(interval)
	defer t.Stop()
	timeout := max(interval, time.Second)
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		snap := svc().Snapshot()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		_, err := SendHeartbeat(ctx, pool, pmAddr, id, snap.BytesUsed, snap.ActiveOps)
		cancel()
		if err != nil && logf != nil {
			logf("heartbeat: %v", err)
		}
	}
}

// Membership is a decoded MMembers response.
type Membership struct {
	Epoch      uint64
	Redundancy erasure.Redundancy
	Members    []Member
}

// FetchMembers retrieves the provider listing: clients map provider ids
// to addresses from it, the monitor reads liveness and load.
func FetchMembers(ctx context.Context, pool *rpc.Pool, pmAddr string) (Membership, error) {
	resp, err := pool.Call(ctx, pmAddr, MMembers, nil)
	if err != nil {
		return Membership{}, fmt.Errorf("pmanager: members: %w", err)
	}
	return decodeMembership(resp)
}

// decodeMembership parses an MMembers response.
func decodeMembership(body []byte) (Membership, error) {
	r := wire.NewReader(body)
	ms := Membership{Epoch: r.Uint64()}
	ms.Redundancy = erasure.Redundancy{K: int(r.Uint8()), M: int(r.Uint8())}
	n := r.Count(10) // id, address length, alive, four varints
	ms.Members = make([]Member, 0, n)
	for i := 0; i < n; i++ {
		ms.Members = append(ms.Members, Member{
			ID:        r.Uint32(),
			Addr:      r.String(),
			Alive:     r.Bool(),
			LastSeen:  time.Duration(r.Varint()),
			Capacity:  r.Varint(),
			BytesUsed: r.Varint(),
			ActiveOps: r.Varint(),
		})
	}
	return ms, r.Err()
}
