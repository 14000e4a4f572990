package pmanager

import (
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"blob/internal/wire"
)

// FuzzPManagerWire feeds arbitrary bodies to the provider manager's
// network decoders: the MHeartbeat request and reply (which = 0, 1), the
// MRegister request (2), the MMembers reply (3), and the MAllocate
// request and reply (4, 5). No body panics or sizes an allocation from a count its bytes
// cannot hold, and whatever a handler accepts it answers with a reply
// the client half parses into what was asked.
func FuzzPManagerWire(f *testing.F) {
	m := New(Config{})
	for _, addr := range []string{"a:1", "b:1", "c:1"} { // ids 1..3
		m.Register(addr, 0)
	}
	ctx := context.Background()
	register := func(addr string, capacity int64) []byte {
		w := wire.NewWriter(16)
		w.String(addr)
		w.Varint(capacity)
		return w.Bytes()
	}
	beat := func(id uint32) []byte {
		w := wire.NewWriter(12)
		w.Uint32(id)
		w.Varint(4096)
		w.Varint(2)
		return w.Bytes()
	}
	members, _ := m.handleMembers(ctx, nil)
	alloc, _ := m.handleAllocate(ctx, EncodeAllocate(2, 2))
	f.Add(uint8(0), beat(1))
	f.Add(uint8(0), beat(9))
	f.Add(uint8(0), beat(1)[:5])
	f.Add(uint8(1), []byte{1})
	f.Add(uint8(2), register("d:1", 1<<30))
	f.Add(uint8(3), members)
	f.Add(uint8(4), EncodeAllocate(3, 2))
	f.Add(uint8(5), alloc)
	header := make([]byte, 10) // MMembers: epoch, k, m
	for _, n := range []uint64{1 << 40, 1 << 63} {
		f.Add(uint8(2), binary.AppendUvarint(nil, n)) // address length
		f.Add(uint8(3), binary.AppendUvarint(slices.Clone(header), n))
		f.Add(uint8(4), binary.AppendUvarint(binary.AppendUvarint(nil, n), 1))
		f.Add(uint8(5), binary.AppendUvarint([]byte{0}, n))
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		switch which % 6 {
		case 0:
			resp, err := m.handleHeartbeat(ctx, body)
			if err != nil {
				return
			}
			id := wire.NewReader(body).Uint32()
			if known, err := decodeHeartbeatReply(resp); err != nil || known != (id >= 1 && id <= 3) {
				t.Fatalf("beat from id %d answered known=%v, %v", id, known, err)
			}
		case 1:
			decodeHeartbeatReply(body)
		case 2:
			// A fresh manager per input, so the placement cases keep
			// seeing exactly ids 1..3; its one member makes a repeated
			// address re-register.
			reg := New(Config{})
			reg.Register("a:1", 0)
			resp, err := reg.handleRegister(ctx, body)
			if err != nil {
				return
			}
			addr := wire.NewReader(body).String()
			id := wire.NewReader(resp).Uint32()
			members, _ := reg.handleMembers(ctx, nil)
			ms, err := decodeMembership(members)
			if err != nil {
				t.Fatalf("client cannot parse the listing: %v", err)
			}
			if i := slices.IndexFunc(ms.Members, func(m Member) bool { return m.ID == id }); i < 0 || ms.Members[i].Addr != addr {
				t.Fatalf("registered %q as id %d, listing %+v", addr, id, ms.Members)
			}
		case 3:
			if ms, err := decodeMembership(body); err == nil && len(ms.Members) > len(body)/10 {
				t.Fatalf("%d members from %d bytes", len(ms.Members), len(body))
			}
		case 4:
			r := wire.NewReader(body)
			n, rep := r.Uvarint(), r.Uvarint()
			if r.Err() == nil && n > 1<<12 && n <= maxAllocIDs {
				return // legal, but placement is linear in pages: slow, not interesting
			}
			resp, err := m.handleAllocate(ctx, body)
			if err != nil {
				return
			}
			a, err := DecodeAllocation(resp)
			if err != nil {
				t.Fatalf("client cannot parse the placement: %v", err)
			}
			want := n * min(max(rep, 1), 3)
			if uint64(len(a.IDs)) != want {
				t.Fatalf("%d pages x %d replicas placed as %d ids, want %d", n, rep, len(a.IDs), want)
			}
			for _, id := range a.IDs {
				if a.Addrs[id] == "" {
					t.Fatalf("placed id %d has no address", id)
				}
			}
		case 5:
			if a, err := DecodeAllocation(body); err == nil && 4*len(a.IDs)+5*len(a.Addrs) > len(body) {
				t.Fatalf("%d ids and %d addresses from %d bytes", len(a.IDs), len(a.Addrs), len(body))
			}
		}
	})
}
