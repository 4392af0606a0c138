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
	// allocations. Each line is one packed word, tag<<2 | dirty | valid, and
	// lastUse[i] is line i's LRU stamp: 16 bytes a line. Line addresses stay
	// far below 2^62 (kernel address spaces are 2^33 bytes apart), so the
	// shifted tag is exact.
	lines     []uint64
	lastUse   []uint64
	ways      int
	setMask   uint64
	lineShift uint
	useClock  uint64
	// Stats accumulates hit/miss counters. Accesses through helper methods
	// on L1/L2 front-ends update it; direct Lookup/Fill calls do not.
	Stats stats.Cache
}

// The flag bits of a packed line word.
const (
	lineValid uint64 = 1 << iota
	lineDirty
)

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
		lastUse:   reuse(c.lastUse, numSets*ways),
		ways:      ways,
		setMask:   uint64(numSets - 1),
		lineShift: shift,
	}
	return c
}

// index returns the first line of lineAddr's set and the packed word of a
// valid, clean line holding it.
func (c *Cache) index(lineAddr uint64) (base int, want uint64) {
	tag := lineAddr >> c.lineShift
	return int(tag&c.setMask) * c.ways, tag<<2 | lineValid
}

// Lookup probes for lineAddr. On a hit it refreshes LRU state and, when
// markDirty is set, marks the line dirty. It does not touch Stats.
func (c *Cache) Lookup(lineAddr uint64, markDirty bool) bool {
	base, want := c.index(lineAddr)
	set := c.lines[base : base+c.ways]
	for i, ln := range set {
		if ln&^lineDirty == want {
			c.useClock++
			c.lastUse[base+i] = c.useClock
			if markDirty {
				set[i] |= lineDirty
			}
			return true
		}
	}
	return false
}

// Contains probes for lineAddr without perturbing LRU or dirty state.
func (c *Cache) Contains(lineAddr uint64) bool {
	base, want := c.index(lineAddr)
	for _, ln := range c.lines[base : base+c.ways] {
		if ln&^lineDirty == want {
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
	base, want := c.index(lineAddr)
	set := c.lines[base : base+c.ways]
	use := c.lastUse[base : base+c.ways]
	c.useClock++
	var dirtyBit uint64
	if dirty {
		dirtyBit = lineDirty
	}
	victim := -1
	for i, ln := range set {
		if ln&^lineDirty == want {
			use[i] = c.useClock
			set[i] |= dirtyBit
			return Eviction{}
		}
		if ln&lineValid == 0 {
			if victim == -1 || set[victim]&lineValid != 0 {
				victim = i
			}
			continue
		}
		if victim == -1 || (set[victim]&lineValid != 0 && use[i] < use[victim]) {
			victim = i
		}
	}
	ev := Eviction{}
	if v := set[victim]; v&lineValid != 0 {
		ev = Eviction{LineAddr: v >> 2 << c.lineShift, Dirty: v&lineDirty != 0, Valid: true}
	}
	set[victim] = want | dirtyBit
	use[victim] = c.useClock
	return ev
}
