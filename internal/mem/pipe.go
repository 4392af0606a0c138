package mem

// pipe is a bounded FIFO whose entries become visible to the consumer only
// after a fixed delay, modeling a pipelined link (wire latency) with finite
// buffering (backpressure). The zero value is unusable; use renewPipe.
//
// The buffer is a ring: Pop advances head instead of shifting the remaining
// entries down. It grows by doubling up to the capacity, so a pipe that
// never fills does not pay for its whole capacity.
type pipe[T any] struct {
	ring    []pipeEntry[T]
	head, n int
	cap     int
	latency uint64
}

type pipeEntry[T any] struct {
	ready uint64
	val   T
}

// renewPipe builds an empty pipe in p's ring (p nil: a new pipe): what a
// finished run left in flight is dropped.
func renewPipe[T any](p *pipe[T], capacity int, latency uint64) *pipe[T] {
	if capacity <= 0 {
		capacity = 1
	}
	if p == nil {
		p = new(pipe[T])
	}
	*p = pipe[T]{ring: reuse(p.ring, min(len(p.ring), capacity)), cap: capacity, latency: latency}
	return p
}

// CanPush reports whether the pipe has buffer space.
func (p *pipe[T]) CanPush() bool { return p.n < p.cap }

// Push enqueues v at cycle now; it becomes poppable at now+latency.
// Returns false (and drops nothing) when full.
func (p *pipe[T]) Push(now uint64, v T) bool {
	if !p.CanPush() {
		return false
	}
	if p.n == len(p.ring) {
		p.grow()
	}
	tail := p.head + p.n
	if tail >= len(p.ring) {
		tail -= len(p.ring)
	}
	p.ring[tail] = pipeEntry[T]{ready: now + p.latency, val: v}
	p.n++
	return true
}

// grow moves the entries, oldest first, into a ring twice as large (at most
// the capacity).
func (p *pipe[T]) grow() {
	ring := make([]pipeEntry[T], min(max(2*len(p.ring), 4), p.cap))
	n := copy(ring, p.ring[p.head:])
	copy(ring[n:], p.ring[:p.head])
	p.ring, p.head = ring, 0
}

// CanPop reports whether the head entry has traversed the pipe.
func (p *pipe[T]) CanPop(now uint64) bool {
	return p.n > 0 && p.ring[p.head].ready <= now
}

// Pop removes and returns the head entry. Call only after CanPop.
func (p *pipe[T]) Pop() T {
	v := p.ring[p.head].val
	p.head++
	if p.head == len(p.ring) {
		p.head = 0
	}
	p.n--
	return v
}

// Peek returns the head entry without removing it. Call only after CanPop.
func (p *pipe[T]) Peek() T { return p.ring[p.head].val }

// Len returns the number of buffered entries (ready or in flight).
func (p *pipe[T]) Len() int { return p.n }

// NextReady returns the cycle the head entry becomes poppable. The pipe is
// FIFO with uniform latency, so no later entry can become poppable earlier.
// Empty pipes return NeverEvent.
func (p *pipe[T]) NextReady() uint64 {
	if p.n == 0 {
		return NeverEvent
	}
	return p.ring[p.head].ready
}
