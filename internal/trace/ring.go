package trace

import "sync"

// ring is the fixed-capacity record buffer both of a Tracer's record
// types live in. Records are numbered 1, 2, … in push order; once the
// ring is full each push overwrites the oldest. The backing array is
// allocated on the first push, so a process that never records (an
// untraced node's span ring) pays for no slots.
type ring[T any] struct {
	size int

	mu   sync.Mutex
	buf  []T
	next uint64 // records ever pushed: the newest is number next
}

// push stores v as record next+1.
func (r *ring[T]) push(v T) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]T, r.size)
	}
	r.buf[r.next%uint64(r.size)] = v
	r.next++
	r.mu.Unlock()
}

// since returns the live records numbered above seq that keep accepts,
// oldest first, and the latest record number ever pushed. Both come from
// one critical section, so latest never trails the records returned.
// keep sees each record's number and a copy it may amend before the copy
// is returned.
func (r *ring[T]) since(seq uint64, keep func(seq uint64, v *T) bool) (out []T, latest uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq >= r.next {
		return nil, r.next
	}
	// The ring holds records next-size+1 .. next (all of them until it
	// first wraps).
	first := max(seq, r.next-min(r.next, uint64(r.size))) + 1
	for s := first; s <= r.next; s++ {
		v := r.buf[(s-1)%uint64(r.size)]
		if keep(s, &v) {
			out = append(out, v)
		}
	}
	return out, r.next
}
