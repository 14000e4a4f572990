package dht

import (
	"encoding/binary"
	"fmt"
	"math"

	"blob/internal/wire"
)

// Hint is what a MultiGet tells the stores about the walk it is one step
// of, for their follow hook (Store.Follow). dht gives the fields no
// meaning beyond passing them on and counting.
type Hint struct {
	// First and Count are the range the reader is resolving. Count 0
	// asks for the requested keys and nothing else.
	First, Count uint64
	// Used is how many extras this node sent earlier that readers have
	// since consumed (Values.Take) and it has not been told of; it feeds
	// Store.FollowUsed, so that served against used can be read off each
	// store. MultiGet sets it per node; callers leave it zero.
	Used uint64
}

// Caps on what the follow hook may add to one MMultiGet response; the
// requested keys themselves are always answered. A reader short of a
// value asks for it by key in its next wave and is followed again from
// there, so the caps cost trips, never answers. Sized by mstore's
// arithmetic, the one hook there is: a 256-page region written whole by
// one version is 1+8+64 = 73 blocks of about 27 KiB with rs stripe refs
// in every leaf, so a read of a whole region is served in one response
// with room for its changes of version, while a region patched page by
// page (over 300 blocks under 256 pages) takes a few waves and cannot
// make one response grow without bound.
const (
	MaxFollowBlocks = 128
	MaxFollowBytes  = 64 << 10
)

// minEntryBytes is the least an encoded key/value entry occupies: the
// 8-byte key and a one-byte length. Counts read off the wire are checked
// against it before anything is sized by them.
const minEntryBytes = 9

// appendMultiGetRequest encodes an MMultiGet request: the counted keys,
// then the hint as three uvarints.
func appendMultiGetRequest(w *wire.Writer, keys []uint64, h Hint) {
	w.Uint64Slice(keys)
	w.Uvarint(h.First)
	w.Uvarint(h.Count)
	w.Uvarint(h.Used)
}

// keyRun is a counted key list read in place: little-endian u64s
// aliasing the message body they arrived in.
type keyRun []byte

// Len returns the number of keys.
func (k keyRun) Len() int { return len(k) / 8 }

// At returns key i.
func (k keyRun) At(i int) uint64 { return binary.LittleEndian.Uint64(k[8*i:]) }

// decodeMultiGetRequest parses what appendMultiGetRequest wrote, the
// keys in place. The key count is checked against the body
// (wire.Reader.Count) and the range against overflow, so a handler may
// loop and add over them.
func decodeMultiGetRequest(body []byte) (keyRun, Hint, error) {
	r := wire.NewReader(body)
	keys := keyRun(r.Raw(8 * r.Count(8)))
	h := Hint{First: r.Uvarint(), Count: r.Uvarint(), Used: r.Uvarint()}
	if err := r.Err(); err != nil {
		return nil, Hint{}, err
	}
	if r.Remaining() != 0 {
		return nil, Hint{}, fmt.Errorf("%d trailing bytes", r.Remaining())
	}
	if h.Count > math.MaxUint64-h.First {
		return nil, Hint{}, fmt.Errorf("range [%d,+%d) overflows", h.First, h.Count)
	}
	return keys, h, nil
}

// An MMultiGet response is the request's key count, one found flag (and
// value) per requested key in request order, then the extras the follow
// hook led to — each a 1 byte, its key and its value — closed by a 0
// byte. decodeMultiGetResponse puts every value into into, aliasing
// resp, under from (extras under their own keys, never over a value
// already there), and returns the requested keys answered "not found",
// in request order.
func decodeMultiGetResponse(resp []byte, keys []uint64, from string, into *Values) (missed []uint64, err error) {
	r := wire.NewReader(resp)
	if n := r.Uvarint(); r.Err() == nil && n != uint64(len(keys)) {
		return nil, fmt.Errorf("dht: multiget response count %d != %d", n, len(keys))
	}
	for _, k := range keys {
		if r.Bool() {
			if v := r.BytesField(); r.Err() == nil {
				into.put(k, value{body: v, from: from})
			}
		} else {
			missed = append(missed, k)
		}
	}
	for r.Bool() { // every round consumes at least minEntryBytes+1 or fails the reader
		k := r.Uint64()
		v := r.BytesField()
		if r.Err() != nil {
			break
		}
		into.put(k, value{body: v, from: from, extra: true})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dht: multiget response: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("dht: multiget response: %d trailing bytes", r.Remaining())
	}
	return missed, nil
}
