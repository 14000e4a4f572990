package provider

// Zero-copy request/response codecs for the page data path (docs/perf.md
// records the copy budget). EncodePutPagesVec emits scatter-gather
// segments whose page payloads alias the caller's buffer — the rpc
// layer flushes them with one vectored write, so page bytes cross
// client memory zero times between the caller's buffer and the socket.
// DecodeGetPagesInto copies each fetched page exactly once, from the
// pooled response frame straight into the read destination the caller
// computed.

import (
	"fmt"

	"blob/internal/wire"
)

// EncodePutPagesVec builds an MPutPages request as scatter-gather body
// segments for rpc.Pool.Go: small header segments carved from one
// arena, page payload segments aliasing datas. The datas slices must
// stay immutable until the call completes (Pending.Wait returns). All
// pages must share the same blob and write identity.
func EncodePutPagesVec(blob, write uint64, rels []uint32, datas [][]byte) [][]byte {
	// Exact worst-case header arena: blob+write (16) + count varint (10)
	// + per page rel (4) and length varint (10). One allocation each for
	// the arena and the segment list.
	vw := wire.NewVec(26+14*len(rels), 1+2*len(rels))
	vw.Uint64(blob)
	vw.Uint64(write)
	vw.Uvarint(uint64(len(rels)))
	for i := range rels {
		vw.Uint32(rels[i])
		vw.Uvarint(uint64(len(datas[i])))
		vw.Alias(datas[i])
	}
	return vw.Segs()
}

// PageStatus is the per-page outcome of DecodeGetPagesInto.
type PageStatus uint8

// DecodeGetPagesInto outcomes.
const (
	// PageMissing: the provider answered and does not hold the page — a
	// definite miss (read-repair target).
	PageMissing PageStatus = iota
	// PageOK: the payload was copied into the destination slice.
	// Integrity is the caller's job (checksum the destination).
	PageOK
	// PageBad: the provider returned a payload whose size does not
	// match the destination — treated like a corrupt copy.
	PageBad
)

// DecodeGetPagesInto parses an MGetPages response, copying each present
// page directly into dsts[i] (the destination sub-slices of the read
// buffer) and recording the per-page outcome in status. It performs no
// allocations: dsts and status are caller-provided, and the response
// body may be released as soon as it returns. len(status) must equal
// len(dsts).
func DecodeGetPagesInto(body []byte, dsts [][]byte, status []PageStatus) error {
	r := wire.NewReader(body)
	n := r.Count(1) // a presence flag per page
	if n != len(dsts) {
		return fmt.Errorf("provider: response count %d != %d", n, len(dsts))
	}
	for i := range dsts {
		if !r.Bool() {
			status[i] = PageMissing
			continue
		}
		data := r.BytesField()
		if r.Err() != nil {
			break
		}
		if len(data) != len(dsts[i]) {
			status[i] = PageBad
			continue
		}
		copy(dsts[i], data)
		status[i] = PageOK
	}
	return r.Err()
}
