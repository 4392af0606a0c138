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
	// allocations. Each line is one packed word, tag<<2 | dirty | valid: 8
	// bytes a line (line addresses stay far below 2^62, so the shifted tag
	// is exact). A set keeps its lines most recently used first, so LRU
	// needs no stamp. Its valid lines are a prefix of it: renewCache zeroes
	// the store, a fill takes the first invalid way, nothing invalidates.
	lines     []uint64
	ways      int
	setMask   uint64
	lineShift uint
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
// line invalid and counters zero.
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

// index returns the first line of lineAddr's set and the packed word of a
// valid, clean line holding it.
func (c *Cache) index(lineAddr uint64) (base int, want uint64) {
	tag := lineAddr >> c.lineShift
	return int(tag&c.setMask) * c.ways, tag<<2 | lineValid
}

// Lookup probes for lineAddr. On a hit it moves the line to the front of its
// set and, when markDirty is set, marks it dirty. It does not touch Stats.
func (c *Cache) Lookup(lineAddr uint64, markDirty bool) bool {
	base, want := c.index(lineAddr)
	set := c.lines[base : base+c.ways]
	for i, ln := range set {
		if ln&^lineDirty == want {
			if markDirty {
				ln |= lineDirty
			}
			toFront(set, i, ln)
			return true
		}
	}
	return false
}

// toFront moves set[0:i] one place back and writes ln at set[0]; a plain
// loop, as copy() measured slower over at most ways-1 words.
func toFront(set []uint64, i int, ln uint64) {
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = ln
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

// Fill installs lineAddr (evicting the LRU line if the set is full) and
// returns what was displaced. If the line is already present the call only
// refreshes recency/dirty state. It does not touch Stats.
func (c *Cache) Fill(lineAddr uint64, dirty bool) Eviction {
	base, want := c.index(lineAddr)
	set := c.lines[base : base+c.ways]
	var dirtyBit uint64
	if dirty {
		dirtyBit = lineDirty
	}
	victim := len(set) - 1
	for i, ln := range set {
		if ln&^lineDirty == want {
			toFront(set, i, ln|dirtyBit)
			return Eviction{}
		}
		if ln&lineValid == 0 {
			victim = i
			break
		}
	}
	ev := Eviction{}
	if v := set[victim]; v&lineValid != 0 {
		ev = Eviction{LineAddr: v >> 2 << c.lineShift, Dirty: v&lineDirty != 0, Valid: true}
	}
	toFront(set, victim, want|dirtyBit)
	return ev
}
