package dht

import (
	"context"
	"fmt"
	"sync"

	"blob/internal/rpc"
	"blob/internal/wire"
)

// RPC method identifiers for the directory service (0x02xx block).
const (
	MDirRegister = 0x0201
	MDirMembers  = 0x0202
)

func init() {
	rpc.RegisterMethodName(MDirRegister, "dht.MDirRegister")
	rpc.RegisterMethodName(MDirMembers, "dht.MDirMembers")
}

// Directory is the membership registry metadata providers join and
// clients consult to build their ring view. Each membership change bumps
// an epoch so clients can cheaply detect staleness.
//
// In the paper this role is played by the DHT's own overlay maintenance;
// a one-hop DHT externalizes it into this small service, which the
// cluster harness co-locates with the provider manager node.
type Directory struct {
	mu      sync.Mutex
	epoch   uint64
	nextID  uint64
	members []NodeInfo
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{nextID: 1}
}

// Register adds a node and returns its assigned ID and the new epoch.
// Registering an address twice returns the existing ID (idempotent
// restarts).
func (d *Directory) Register(addr string) (id, epoch uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range d.members {
		if m.Addr == addr {
			return m.ID, d.epoch
		}
	}
	id = d.nextID
	d.nextID++
	d.members = append(d.members, NodeInfo{ID: id, Addr: addr})
	d.epoch++
	return id, d.epoch
}

// Members returns the current epoch and membership snapshot.
func (d *Directory) Members() (uint64, []NodeInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeInfo, len(d.members))
	copy(out, d.members)
	return d.epoch, out
}

// RegisterHandlers wires the directory RPCs onto srv.
func (d *Directory) RegisterHandlers(srv *rpc.Server) {
	srv.Handle(MDirRegister, d.handleRegister)
	srv.Handle(MDirMembers, d.handleMembers)
}

func (d *Directory) handleRegister(_ context.Context, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	addr := r.String()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dir register: %w", err)
	}
	id, epoch := d.Register(addr)
	w := wire.NewWriter(16)
	w.Uint64(id)
	w.Uint64(epoch)
	return w.Bytes(), nil
}

func (d *Directory) handleMembers(_ context.Context, _ []byte) ([]byte, error) {
	epoch, members := d.Members()
	w := wire.NewWriter(32 * len(members))
	w.Uint64(epoch)
	w.Uvarint(uint64(len(members)))
	for _, m := range members {
		w.Uint64(m.ID)
		w.String(m.Addr)
	}
	return w.Bytes(), nil
}

// DecodeMembers parses an MDirMembers response.
func DecodeMembers(body []byte) (epoch uint64, members []NodeInfo, err error) {
	r := wire.NewReader(body)
	epoch = r.Uint64()
	n := r.Count(9) // id + address length
	members = make([]NodeInfo, 0, n)
	for i := 0; i < n; i++ {
		members = append(members, NodeInfo{ID: r.Uint64(), Addr: r.String()})
	}
	return epoch, members, r.Err()
}

// RegisterWith announces a store node at addr to the directory reachable
// through pool at dirAddr, returning the assigned node ID.
func RegisterWith(ctx context.Context, pool *rpc.Pool, dirAddr, addr string) (uint64, error) {
	w := wire.NewWriter(len(addr) + 4)
	w.String(addr)
	resp, err := pool.Call(ctx, dirAddr, MDirRegister, w.Bytes())
	if err != nil {
		return 0, fmt.Errorf("dht: register with directory: %w", err)
	}
	r := wire.NewReader(resp)
	id := r.Uint64()
	return id, r.Err()
}

// FetchRing retrieves the membership from the directory and builds a Ring.
func FetchRing(ctx context.Context, pool *rpc.Pool, dirAddr string) (*Ring, uint64, error) {
	resp, err := pool.Call(ctx, dirAddr, MDirMembers, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("dht: fetch members: %w", err)
	}
	epoch, members, err := DecodeMembers(resp)
	if err != nil {
		return nil, 0, err
	}
	return NewRing(members), epoch, nil
}
