package mem

import "math/bits"

// MSHR is a miss-status holding register file: it tracks lines with an
// outstanding fill and merges subsequent misses to the same line so only one
// request per line leaves the cache. Tokens of merged requesters are
// released together when the fill completes.
//
// The file is slot-based: maxEntries token buffers are carved from one slab
// allocated once and recycled through a free list, so steady-state
// operation allocates nothing (primary misses are the hottest allocation
// site in long simulations otherwise). The slice Complete returns aliases
// the retired entry's slot buffer and is valid only until the next Allocate
// — both cache levels consume it before returning to the cycle loop.
type MSHR struct {
	// lines[s] is the pending line slot s tracks (stale when s is free).
	lines []uint64
	// Pending slots are chained by line hash: head[b] is the first slot of
	// bucket b (-1 when empty) and next[s] the slot after s. With at least
	// two buckets per slot a chain is almost always empty or one long, so
	// every lookup — above all the "not pending" answer each primary miss
	// asks for twice — costs O(1) instead of a scan of every slot. Which
	// slot holds a line is still decided by the free list alone.
	head  []int32
	next  []int32
	shift uint // 64 - log2(len(head)): bucket is the hash's top bits
	// atomic[s] marks a slot some atomic requester allocated or merged into.
	atomic []bool
	// Slot s's waiters are tokens[s*maxMerges:][:count[s]], in arrival order.
	tokens []uint32
	count  []int32
	free   []int32

	maxEntries int
	maxMerges  int
}

// NewMSHR builds an MSHR file with maxEntries distinct pending lines and up
// to maxMerges requesters per line (the primary miss counts as one).
func NewMSHR(maxEntries, maxMerges int) *MSHR {
	if maxEntries <= 0 {
		maxEntries = 1
	}
	if maxMerges <= 0 {
		maxMerges = 1
	}
	logBuckets := bits.Len(uint(2*maxEntries - 1)) // 2*maxEntries rounded up to a power of two
	m := &MSHR{
		lines:      make([]uint64, maxEntries),
		head:       make([]int32, 1<<logBuckets),
		next:       make([]int32, maxEntries),
		shift:      uint(64 - logBuckets),
		atomic:     make([]bool, maxEntries),
		tokens:     make([]uint32, maxEntries*maxMerges),
		count:      make([]int32, maxEntries),
		free:       make([]int32, 0, maxEntries),
		maxEntries: maxEntries,
		maxMerges:  maxMerges,
	}
	for b := range m.head {
		m.head[b] = -1
	}
	for i := maxEntries - 1; i >= 0; i-- {
		m.free = append(m.free, int32(i))
	}
	return m
}

// bucket hashes lineAddr to its chain (Fibonacci hashing: the multiply
// spreads the line-index bits into the top bits the shift keeps, so the
// zero offset bits of a line address do not matter).
func (m *MSHR) bucket(lineAddr uint64) int {
	return int((lineAddr * 0x9E3779B97F4A7C15) >> m.shift)
}

// find returns the slot tracking lineAddr, -1 when it is not pending.
func (m *MSHR) find(lineAddr uint64) int {
	for s := m.head[m.bucket(lineAddr)]; s >= 0; s = m.next[s] {
		if m.lines[s] == lineAddr {
			return int(s)
		}
	}
	return -1
}

// Pending reports whether lineAddr already has an outstanding fill.
func (m *MSHR) Pending(lineAddr uint64) bool { return m.find(lineAddr) >= 0 }

// MarkAtomic records that an atomic waits on pending lineAddr; Atomic
// reports it until Complete retires the entry.
func (m *MSHR) MarkAtomic(lineAddr uint64) { m.atomic[m.find(lineAddr)] = true }

// Atomic reports whether lineAddr is pending with an atomic among its waiters.
func (m *MSHR) Atomic(lineAddr uint64) bool {
	s := m.find(lineAddr)
	return s >= 0 && m.atomic[s]
}

// Full reports whether no new line entry can be allocated.
func (m *MSHR) Full() bool { return len(m.free) == 0 }

// Allocate records a primary miss for lineAddr carrying token. It returns
// false when the MSHR file is full (the access must retry). lineAddr must
// not already be pending; merge those with Merge.
func (m *MSHR) Allocate(lineAddr uint64, token uint32) bool {
	if m.Full() {
		return false
	}
	if m.Pending(lineAddr) {
		panic("mem: MSHR Allocate on already-pending line")
	}
	s := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.tokens[int(s)*m.maxMerges], m.count[s] = token, 1
	m.lines[s] = lineAddr
	b := m.bucket(lineAddr)
	m.next[s], m.head[b] = m.head[b], s
	return true
}

// Merge attaches token to the pending entry for lineAddr. It returns false
// when the per-line merge capacity is exhausted (the access must retry).
func (m *MSHR) Merge(lineAddr uint64, token uint32) bool {
	s := m.find(lineAddr)
	if s < 0 {
		panic("mem: MSHR Merge on non-pending line")
	}
	n := int(m.count[s])
	if n >= m.maxMerges {
		return false
	}
	m.tokens[s*m.maxMerges+n] = token
	m.count[s]++
	return true
}

// Complete retires the entry for lineAddr and returns all waiting tokens in
// arrival order. The returned slice aliases the recycled slot buffer: it is
// valid only until the next Allocate, so callers must consume it before
// issuing new misses. Completing a non-pending line returns nil (a response
// can race a flush only in tests; real fills always have an entry).
func (m *MSHR) Complete(lineAddr uint64) []uint32 {
	link := &m.head[m.bucket(lineAddr)]
	for *link >= 0 && m.lines[*link] != lineAddr {
		link = &m.next[*link]
	}
	s := *link
	if s < 0 {
		return nil
	}
	*link = m.next[s]
	m.atomic[s] = false
	m.free = append(m.free, s)
	base := int(s) * m.maxMerges
	end := base + int(m.count[s])
	return m.tokens[base:end:end]
}

// Used returns the number of occupied line entries.
func (m *MSHR) Used() int { return m.maxEntries - len(m.free) }
