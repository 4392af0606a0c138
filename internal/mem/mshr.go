package mem

// MSHR is a miss-status holding register file: it tracks lines with an
// outstanding fill and merges subsequent misses to the same line so only one
// request per line leaves the cache. Tokens of merged requesters are
// released together when the fill completes.
//
// The file is slot-based: maxEntries token buffers are allocated once and
// recycled through a free list, so steady-state operation allocates nothing
// (primary misses are the hottest allocation site in long simulations
// otherwise). The slice Complete returns aliases the retired entry's slot
// buffer and is valid only until the next Allocate — both cache levels
// consume it before returning to the cycle loop.
type MSHR struct {
	// lines[s] is the pending line slot s tracks (noLine when free). A file
	// has a few dozen slots at most, so finding a line is a linear scan of
	// this array — cheaper than hashing into a map of the same size.
	lines []uint64
	// atomic[s] marks a slot some atomic requester allocated or merged into.
	atomic []bool
	// slots holds the per-entry token buffers; retired buffers keep their
	// backing arrays (capacity grows to maxMerges once and stays).
	slots [][]uint32
	free  []int32

	maxEntries int
	maxMerges  int
}

// noLine marks a free slot: line addresses are multiples of the line size,
// never all-ones.
const noLine = ^uint64(0)

// NewMSHR builds an MSHR file with maxEntries distinct pending lines and up
// to maxMerges requesters per line (the primary miss counts as one).
func NewMSHR(maxEntries, maxMerges int) *MSHR {
	if maxEntries <= 0 {
		maxEntries = 1
	}
	if maxMerges <= 0 {
		maxMerges = 1
	}
	m := &MSHR{
		lines:      make([]uint64, maxEntries),
		atomic:     make([]bool, maxEntries),
		slots:      make([][]uint32, maxEntries),
		free:       make([]int32, 0, maxEntries),
		maxEntries: maxEntries,
		maxMerges:  maxMerges,
	}
	// One slab backs every slot at full merge capacity: Merge's len check
	// keeps a slot at <= maxMerges tokens, so no append ever reallocates and
	// the whole file costs one buffer allocation instead of maxEntries.
	slab := make([]uint32, maxEntries*maxMerges)
	for i := maxEntries - 1; i >= 0; i-- {
		m.slots[i] = slab[i*maxMerges : i*maxMerges : (i+1)*maxMerges]
		m.lines[i] = noLine
		m.free = append(m.free, int32(i))
	}
	return m
}

// find returns the slot tracking lineAddr, -1 when it is not pending.
func (m *MSHR) find(lineAddr uint64) int {
	for s, l := range m.lines {
		if l == lineAddr {
			return s
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
	m.slots[s] = append(m.slots[s][:0], token)
	m.lines[s] = lineAddr
	return true
}

// Merge attaches token to the pending entry for lineAddr. It returns false
// when the per-line merge capacity is exhausted (the access must retry).
func (m *MSHR) Merge(lineAddr uint64, token uint32) bool {
	s := m.find(lineAddr)
	if s < 0 {
		panic("mem: MSHR Merge on non-pending line")
	}
	if len(m.slots[s]) >= m.maxMerges {
		return false
	}
	m.slots[s] = append(m.slots[s], token)
	return true
}

// Complete retires the entry for lineAddr and returns all waiting tokens in
// arrival order. The returned slice aliases the recycled slot buffer: it is
// valid only until the next Allocate, so callers must consume it before
// issuing new misses. Completing a non-pending line returns nil (a response
// can race a flush only in tests; real fills always have an entry).
func (m *MSHR) Complete(lineAddr uint64) []uint32 {
	s := m.find(lineAddr)
	if s < 0 {
		return nil
	}
	m.lines[s], m.atomic[s] = noLine, false
	m.free = append(m.free, int32(s))
	return m.slots[s]
}

// Used returns the number of occupied line entries.
func (m *MSHR) Used() int { return m.maxEntries - len(m.free) }
