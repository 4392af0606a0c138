package mem

// pipe is a bounded FIFO whose entries become visible to the consumer only
// after a fixed delay, modeling a pipelined link (wire latency) with finite
// buffering (backpressure). The zero value is unusable; use newPipe.
type pipe[T any] struct {
	entries []pipeEntry[T]
	cap     int
	latency uint64
}

type pipeEntry[T any] struct {
	ready uint64
	val   T
}

func newPipe[T any](capacity int, latency uint64) *pipe[T] {
	if capacity <= 0 {
		capacity = 1
	}
	return &pipe[T]{cap: capacity, latency: latency}
}

// CanPush reports whether the pipe has buffer space.
func (p *pipe[T]) CanPush() bool { return len(p.entries) < p.cap }

// Push enqueues v at cycle now; it becomes poppable at now+latency.
// Returns false (and drops nothing) when full.
func (p *pipe[T]) Push(now uint64, v T) bool {
	if !p.CanPush() {
		return false
	}
	p.entries = append(p.entries, pipeEntry[T]{ready: now + p.latency, val: v})
	return true
}

// CanPop reports whether the head entry has traversed the pipe.
func (p *pipe[T]) CanPop(now uint64) bool {
	return len(p.entries) > 0 && p.entries[0].ready <= now
}

// Pop removes and returns the head entry. Call only after CanPop.
func (p *pipe[T]) Pop() T {
	v := p.entries[0].val
	// Shift rather than reslice so the backing array does not grow
	// unboundedly over a long simulation.
	copy(p.entries, p.entries[1:])
	p.entries = p.entries[:len(p.entries)-1]
	return v
}

// Peek returns the head entry without removing it. Call only after CanPop.
func (p *pipe[T]) Peek() T { return p.entries[0].val }

// Len returns the number of buffered entries (ready or in flight).
func (p *pipe[T]) Len() int { return len(p.entries) }

// NextReady returns the cycle the head entry becomes poppable. The pipe is
// FIFO with uniform latency, so no later entry can become poppable earlier.
// Empty pipes return NeverEvent.
func (p *pipe[T]) NextReady() uint64 {
	if len(p.entries) == 0 {
		return NeverEvent
	}
	return p.entries[0].ready
}
