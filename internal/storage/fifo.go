package storage

// FIFO is a first-in, first-out queue over a head-indexed slice: the
// queue of a device that serves requests in arrival order, or a
// write-back cache's dirty lines.  Taking the head is O(1), a take
// from the middle shifts only the entries before it, and a taken slot
// is zeroed at once, so a queued completion callback is not kept
// reachable after it leaves.  The backing array is reused: it is
// compacted when a push finds it full with the head past its middle,
// so at a steady depth it holds at most about four times that depth.
// The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued entries.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Cap reports the length of the backing array, so tests can bound it.
func (q *FIFO[T]) Cap() int { return cap(q.buf) }

// At returns entry i, counted from the head (0 is the oldest).
func (q *FIFO[T]) At(i int) T { return q.buf[q.head+i] }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if n := len(q.buf); n == cap(q.buf) && 2*q.head >= n {
		live := copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:])
		q.buf, q.head = q.buf[:live], 0
	}
	q.buf = append(q.buf, v)
}

// Take removes and returns entry i, counted from the head.  The
// entries before it move up one slot, keeping their order.
func (q *FIFO[T]) Take(i int) T {
	h := q.head
	v := q.buf[h+i]
	copy(q.buf[h+1:h+i+1], q.buf[h:h+i])
	var zero T
	q.buf[h] = zero
	if q.head = h + 1; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
