package mem

import (
	"fmt"

	"gpusched/internal/stats"
)

// Cache is a set-associative, LRU, line-granularity cache model. It tracks
// tags only (the simulator carries no data), so a "fill" installs presence
// and an "access" tests it. Write policy is the caller's concern: L1 uses it
// read-only (write-through no-allocate), L2 marks lines dirty and collects
// write-backs on eviction.
type Cache struct {
	// lines is the whole tag store, set-major: set i occupies
	// lines[i*ways : (i+1)*ways]. One flat backing array instead of a slice
	// per set — a simulation builds one cache per core plus the L2 slices,
	// and the per-set headers were a measurable share of its setup
	// allocations.
	lines     []cacheLine
	ways      int
	setMask   uint64
	lineShift uint
	useClock  uint64
	// Stats accumulates hit/miss counters. Accesses through helper methods
	// on L1/L2 front-ends update it; direct Lookup/Fill calls do not.
	Stats stats.Cache
}

type cacheLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// NewCache builds a cache of sizeBytes capacity with the given line size and
// associativity. sizeBytes must divide evenly into ways*lineBytes sets and
// the set count must be a power of two.
func NewCache(sizeBytes, lineBytes, ways int) *Cache {
	return renewCache(nil, sizeBytes, lineBytes, ways)
}

// renewCache is NewCache built in c's tag store (c nil: a new one): every
// line invalid, LRU clock and counters zero.
func renewCache(c *Cache, sizeBytes, lineBytes, ways int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("mem: invalid cache geometry %d/%d/%d", sizeBytes, lineBytes, ways))
	}
	numLines := sizeBytes / lineBytes
	numSets := numLines / ways
	if numSets == 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("mem: set count %d not a power of two", numSets))
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	if c == nil {
		c = new(Cache)
	}
	*c = Cache{
		lines:     reuse(c.lines, numSets*ways),
		ways:      ways,
		setMask:   uint64(numSets - 1),
		lineShift: shift,
	}
	return c
}

func (c *Cache) index(lineAddr uint64) (set []cacheLine, tag uint64) {
	idx := (lineAddr >> c.lineShift) & c.setMask
	base := int(idx) * c.ways
	return c.lines[base : base+c.ways], lineAddr >> c.lineShift
}

// Lookup probes for lineAddr. On a hit it refreshes LRU state and, when
// markDirty is set, marks the line dirty. It does not touch Stats.
func (c *Cache) Lookup(lineAddr uint64, markDirty bool) bool {
	set, tag := c.index(lineAddr)
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			c.useClock++
			ln.lastUse = c.useClock
			if markDirty {
				ln.dirty = true
			}
			return true
		}
	}
	return false
}

// Contains probes for lineAddr without perturbing LRU or dirty state.
func (c *Cache) Contains(lineAddr uint64) bool {
	set, tag := c.index(lineAddr)
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Eviction describes a line displaced by Fill.
type Eviction struct {
	LineAddr uint64
	Dirty    bool
	Valid    bool // false when the fill used an empty way
}

// Fill installs lineAddr (evicting the LRU way if the set is full) and
// returns what was displaced. If the line is already present the call only
// refreshes LRU/dirty state. It does not touch Stats.
func (c *Cache) Fill(lineAddr uint64, dirty bool) Eviction {
	set, tag := c.index(lineAddr)
	c.useClock++
	victim := -1
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.useClock
			if dirty {
				ln.dirty = true
			}
			return Eviction{}
		}
		if !ln.valid {
			if victim == -1 || set[victim].valid {
				victim = i
			}
			continue
		}
		if victim == -1 || (set[victim].valid && ln.lastUse < set[victim].lastUse) {
			victim = i
		}
	}
	ev := Eviction{}
	v := &set[victim]
	if v.valid {
		ev = Eviction{LineAddr: v.tag << c.lineShift, Dirty: v.dirty, Valid: true}
	}
	*v = cacheLine{tag: tag, valid: true, dirty: dirty, lastUse: c.useClock}
	return ev
}
