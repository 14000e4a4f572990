package provider

// Zero-copy request/response codecs for the page data path (docs/perf.md
// records the copy budget). EncodePutPagesVec emits scatter-gather
// segments whose page payloads alias the caller's buffer — the rpc
// layer flushes them with one vectored write, so page bytes cross
// client memory zero times between the caller's buffer and the socket.
// An MGetPages answer has one parser, readGetPages. As the call's
// rpc.Sink (PagesInto) it reads each payload off the connection
// straight into the read destination the caller computed, so a fetched
// page crosses client memory once, from the kernel into the read's
// buffer; DecodeGetPagesInto and DecodeGetPages run it over an answer
// already in memory.

import (
	"fmt"

	"blob/internal/rpc"
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

// PageStatus is the per-page outcome of an MGetPages answer.
type PageStatus uint8

// MGetPages answer outcomes, per page.
const (
	// PageMissing: the provider answered and does not hold the page — a
	// definite miss (read-repair target).
	PageMissing PageStatus = iota
	// PageOK: the payload was read into the destination slice.
	// Integrity is the caller's job (checksum the destination).
	PageOK
	// PageBad: the provider returned a payload whose size does not
	// match the destination — treated like a corrupt copy.
	PageBad
)

// PagesInto is the streaming MGetPages decoder. As the call's sink
// (rpc.Pool.Go) it reads the answer off the connection, each present
// page straight into Dsts[i], and records each page's outcome in
// Status (len(Status) == len(Dsts)); an answer that does not parse
// fails the call. It writes Dsts until the call completes, so a caller
// that stops waiting earlier must Detach the call first.
type PagesInto struct {
	Dsts   [][]byte
	Status []PageStatus
}

// ReadBody implements rpc.Sink.
func (p *PagesInto) ReadBody(b *rpc.Body) error {
	return readGetPages(b, p.Dsts, p.Status, false)
}

// DecodeGetPagesInto parses an MGetPages answer already in memory,
// copying each present page directly into dsts[i] (the destination
// sub-slices of the read buffer) and recording the per-page outcome in
// status. It performs no allocations: dsts and status are
// caller-provided, and the body may be released as soon as it returns.
// len(status) must equal len(dsts).
func DecodeGetPagesInto(body []byte, dsts [][]byte, status []PageStatus) error {
	b := rpc.BodyOf(body)
	return readGetPages(&b, dsts, status, false)
}

// DecodeGetPages parses an MGetPages answer to want pages into fresh
// copies; a nil slice means the page was absent on this provider.
func DecodeGetPages(body []byte, want int) ([][]byte, error) {
	pages := make([][]byte, want)
	b := rpc.BodyOf(body)
	if err := readGetPages(&b, pages, make([]PageStatus, want), true); err != nil {
		return nil, err
	}
	return pages, nil
}

// readGetPages is the one MGetPages answer parser (layout in
// service.go): the count, every page's found flag and payload length,
// then the payloads in order, each read straight into its destination.
// fresh gives each found page a new destination of its length
// (DecodeGetPages); otherwise dsts[i] is the caller's, and a payload of
// another length is skipped as PageBad. The count and every length are
// bounded by the unread body, and the lengths together by the body,
// before anything is sized or read.
func readGetPages(b *rpc.Body, dsts [][]byte, status []PageStatus, fresh bool) error {
	v, err := b.Uvarint()
	if err != nil {
		return err
	}
	n, err := wire.CheckCount(v, b.Len(), 1) // a found flag per page
	if err != nil {
		return err
	}
	if n != len(dsts) {
		return fmt.Errorf("provider: response count %d != %d", n, len(dsts))
	}
	claimed := 0  // payload bytes the headers read so far promise
	var bad []int // the lengths of PageBad payloads, to skip; nil unless one turns up
	for i := range dsts {
		found, err := b.ReadByte()
		if err != nil {
			return err
		}
		if found == 0 {
			status[i] = PageMissing
			continue
		}
		if v, err = b.Uvarint(); err != nil {
			return err
		}
		l, err := wire.CheckLength(v, b.Len()-claimed)
		if err != nil {
			return err
		}
		claimed += l
		switch {
		case fresh:
			dsts[i] = make([]byte, l)
			status[i] = PageOK
		case l == len(dsts[i]):
			status[i] = PageOK
		default:
			status[i] = PageBad
			bad = append(bad, l)
		}
	}
	for i := range dsts {
		switch status[i] {
		case PageOK:
			err = b.ReadFull(dsts[i])
		case PageBad:
			err = b.Discard(bad[0])
			bad = bad[1:]
		}
		if err != nil {
			return err
		}
	}
	return nil
}
