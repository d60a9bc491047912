package queue

import "sync"

// Locked is the traditional blocking bounded queue: one mutex and two
// condition variables. It is both the paper's "synchronous queue"
// (block at queue full or queue empty) built the conventional way and
// the locking baseline the ablation benchmarks compare the optimistic
// queues against — the kind of "powerful mutual exclusion mechanism"
// Section 1 says traditional kernels reach for.
type Locked[T any] struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond
	buf      []T
	head     int
	tail     int
	n        int
	closed   bool
}

// NewLocked creates a blocking queue holding up to size items.
func NewLocked[T any](size int) *Locked[T] {
	if size < 1 {
		panic("queue: size must be positive")
	}
	q := &Locked[T]{buf: make([]T, size)}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	return q
}

// Cap returns the queue capacity.
func (q *Locked[T]) Cap() int { return len(q.buf) }

// Len returns the number of queued items.
func (q *Locked[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// TryPut appends without blocking, reporting false when full or
// closed.
func (q *Locked[T]) TryPut(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.n == len(q.buf) {
		return false
	}
	q.put(v)
	return true
}

// Put appends, blocking while the queue is full. It reports false if
// the queue is closed.
func (q *Locked[T]) Put(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == len(q.buf) && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return false
	}
	q.put(v)
	return true
}

func (q *Locked[T]) put(v T) {
	q.buf[q.head] = v
	q.head = (q.head + 1) % len(q.buf)
	q.n++
	q.notEmpty.Signal()
}

// TryGet removes without blocking, reporting false when empty.
func (q *Locked[T]) TryGet() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		var zero T
		return zero, false
	}
	return q.get(), true
}

// Get removes, blocking while the queue is empty. It reports false
// when the queue is closed and drained.
func (q *Locked[T]) Get() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 {
		var zero T
		return zero, false
	}
	return q.get(), true
}

func (q *Locked[T]) get() T {
	v := q.buf[q.tail]
	var zero T
	q.buf[q.tail] = zero
	q.tail = (q.tail + 1) % len(q.buf)
	q.n--
	q.notFull.Signal()
	return v
}

// Close wakes all blocked callers; subsequent puts fail and gets
// drain the remaining items.
func (q *Locked[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}
