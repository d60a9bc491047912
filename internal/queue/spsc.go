package queue

import "sync/atomic"

// SPSC is the single-producer single-consumer optimistic queue of
// Figure 1. Of the two index variables, head is written only by the
// producer and tail only by the consumer (Code Isolation), so when
// the buffer is neither full nor empty the two sides operate on
// disjoint state and need no locks. The item is made visible by the
// final store to head ("we update Q_head at the last instruction
// during Q_put ... the consumer will not detect an item until the
// producer has finished").
//
// Exactly one goroutine may call TryPut and exactly one may call
// TryGet, concurrently with each other.
type SPSC[T any] struct {
	buf  []T
	head atomic.Int64 // next slot the producer fills
	tail atomic.Int64 // next slot the consumer drains
}

// NewSPSC creates an SPSC queue holding up to size items.
func NewSPSC[T any](size int) *SPSC[T] {
	if size < 1 {
		panic("queue: size must be positive")
	}
	return &SPSC[T]{buf: make([]T, size+1)}
}

func (q *SPSC[T]) next(i int64) int64 {
	if i == int64(len(q.buf))-1 {
		return 0
	}
	return i + 1
}

// TryPut appends an item, reporting false when the queue is full.
func (q *SPSC[T]) TryPut(v T) bool {
	h := q.head.Load()
	if q.next(h) == q.tail.Load() {
		return false
	}
	q.buf[h] = v
	q.head.Store(q.next(h)) // publish: last instruction of Q_put
	return true
}

// TryGet removes the oldest item, reporting false when empty.
func (q *SPSC[T]) TryGet() (T, bool) {
	t := q.tail.Load()
	if t == q.head.Load() {
		var zero T
		return zero, false
	}
	v := q.buf[t]
	var zero T
	q.buf[t] = zero
	q.tail.Store(q.next(t))
	return v, true
}

// Len returns the number of queued items (approximate under
// concurrency).
func (q *SPSC[T]) Len() int {
	d := q.head.Load() - q.tail.Load()
	if d < 0 {
		d += int64(len(q.buf))
	}
	return int(d)
}

// Cap returns the queue capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) - 1 }
