package rpc

// Pooled message-body buffers. Every request body a server reads, and
// every response body a client reads through the default sink
// (body.go), lands in a size-classed sync.Pool buffer instead of a
// fresh allocation, and a handler that has to produce response bytes
// of its own can fill buffers from the same pool (GetBuf) and hand them
// back with its response, so a busy connection recycles a small working
// set of buffers instead of churning the garbage collector — the
// client-CPU half of the paper's §V.C observation that processing
// power, not the network, bounds fine-grain throughput.
//
// Ownership protocol:
//
//   - The reader that filled a Buf owns it until it hands it off (to the
//     handler goroutine on a server, to the completed call on a client).
//     A handler that filled a Buf owns it until it returns it in its
//     response's held list (SegHandlerFunc); the server then owns
//     it and releases it once the response has been flushed — the same
//     point at which it releases the request body.
//   - Exactly one Release returns the buffer to its pool. Release is
//     guarded by an atomic swap, so a double release can never insert
//     the same buffer into the pool twice (no aliased reuse — impossible
//     by construction); the second Release panics to make the bug loud.
//   - Bytes panics after Release, so use-after-release fails fast
//     instead of silently reading recycled memory.
//   - Never calling Release is always safe: the buffer is simply
//     garbage-collected and the pool refills on demand.
//   - A slice of the body kept past Release is the bug Bytes cannot
//     catch. Tests turn on PoisonOnRelease, which overwrites every
//     released buffer, so such a slice reads poison and fails the
//     decode or checksum it feeds, loudly.
//   - A response read by a caller's own sink never touches a Buf: the
//     sink reads the body straight into the caller's memory, which the
//     caller owns throughout and takes back early with Pending.Detach.

import (
	"sync"
	"sync/atomic"
)

// bufClasses are the pooled capacity classes. Bodies above the largest
// class fall back to plain allocation (MaxBody-sized messages are rare
// enough that pinning them in pools would waste memory).
var bufClasses = [...]int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

var bufPools [len(bufClasses)]sync.Pool

// Buf is one pooled message body. The zero value is invalid; Bufs come
// from GetBuf only.
type Buf struct {
	data     []byte
	ref      *[]byte // full-capacity backing slice, nil when unpooled
	cls      int
	released atomic.Bool
}

// GetBuf returns a buffer holding n writable bytes (contents
// unspecified), pooled when a size class fits.
func GetBuf(n int) *Buf {
	for cls, size := range bufClasses {
		if n <= size {
			ref, _ := bufPools[cls].Get().(*[]byte)
			if ref == nil {
				s := make([]byte, size)
				ref = &s
			}
			return &Buf{data: (*ref)[:n], ref: ref, cls: cls}
		}
	}
	return &Buf{data: make([]byte, n), cls: -1}
}

// Bytes returns the body. The slice is valid until Release.
func (b *Buf) Bytes() []byte {
	if b.released.Load() {
		panic("rpc: Buf.Bytes after Release")
	}
	return b.data
}

// Len returns the body length without the release check (metrics).
func (b *Buf) Len() int { return len(b.data) }

// Release returns the buffer to its pool. It must be called at most
// once, by the final owner, after the body bytes are no longer needed;
// calling it twice panics, and the swap guarantee means even a
// panicking double release cannot hand the buffer to two users.
func (b *Buf) Release() {
	if b.released.Swap(true) {
		panic("rpc: Buf double Release")
	}
	if p := releasePoison.Load(); p != 0 {
		fill := b.data
		if b.ref != nil {
			fill = *b.ref
		}
		for i := range fill {
			fill[i] = byte(p)
		}
	}
	if b.ref != nil {
		ref := b.ref
		b.ref, b.data = nil, nil
		bufPools[b.cls].Put(ref)
	} else {
		b.data = nil
	}
}

// releasePoison is PoisonOnRelease's state: 0 when off, else 0x100 |
// the fill byte.
var releasePoison atomic.Uint32

// PoisonOnRelease makes every Release from now on overwrite the whole
// buffer with fill before it goes back to its pool, and returns the
// function that restores the previous setting. It is a test seam, like
// a swapped-in sync function, not an option: a test that turns it on
// turns a body decoded after its release into a decode or checksum
// failure instead of a silent read of recycled memory. Only a Buf is
// poisoned: a held Releaser of another kind (a pin on a read-only
// mapping) is never written.
func PoisonOnRelease(fill byte) (restore func()) {
	prev := releasePoison.Swap(0x100 | uint32(fill))
	return func() { releasePoison.Store(prev) }
}
