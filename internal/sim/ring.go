package sim

// Ring is a FIFO queue on a circular array, the queueing idiom beside
// Free's recycling one (resource waiters, a Cond's waiters, a Chan's
// items, a kernel endpoint's packets). A push grows the array, doubling
// it as append would, only when it finds it full, so a ring is sized by
// the deepest its queue has been, never by how many items have passed
// through; order holds across wrap and growth. Init starts a ring on
// storage the caller owns, and Remove takes an item from the middle.
// The zero Ring is empty.
type Ring[T any] struct {
	buf     []T   // len(buf) is the capacity
	head, n int32 // the n items start at buf[head] and wrap
}

// Init empties r onto all of buf's storage, used until a push outgrows it.
func (r *Ring[T]) Init(buf []T) { r.buf, r.head, r.n = buf[:cap(buf)], 0, 0 }

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return int(r.n) }

// Cap returns the length of r's array.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// slot is the index in buf of the i-th item from the head.
func (r *Ring[T]) slot(i int) int {
	if i += int(r.head); i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// Push adds v at the tail.
func (r *Ring[T]) Push(v T) {
	if int(r.n) == len(r.buf) { // full: move the items, oldest first, to an array twice as long
		buf := make([]T, max(2*len(r.buf), 1))
		copy(buf[copy(buf, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[r.slot(int(r.n))] = v
	r.n++
}

// Pop removes and returns the head item; ok is false if r is empty.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v, r.buf[r.head] = r.buf[r.head], zero
	if r.head++; int(r.head) == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v, true
}

// At returns the i-th item from the head, for 0 <= i < Len().
func (r *Ring[T]) At(i int) T { return r.buf[r.slot(i)] }

// Remove deletes the i-th item from the head; the ones behind it move up.
func (r *Ring[T]) Remove(i int) {
	for ; i < int(r.n)-1; i++ {
		r.buf[r.slot(i)] = r.buf[r.slot(i+1)]
	}
	var zero T
	r.buf[r.slot(i)] = zero
	r.n--
}
