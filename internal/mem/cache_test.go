package mem

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestCacheGeometry(t *testing.T) {
	c := NewCache(16*1024, 128, 4)
	if sets := len(c.lines) / c.ways; sets != 32 || c.ways != 4 {
		t.Fatalf("geometry = %d sets x %d ways, want 32x4", sets, c.ways)
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count did not panic")
		}
	}()
	NewCache(3*128, 128, 1) // 3 sets
}

func TestCacheFillThenLookup(t *testing.T) {
	c := NewCache(1024, 128, 2)
	if c.Lookup(0, false) {
		t.Fatal("empty cache hit")
	}
	ev := c.Fill(0, false)
	if ev.Valid {
		t.Fatalf("fill into empty set evicted %+v", ev)
	}
	if !c.Lookup(0, false) {
		t.Fatal("filled line missed")
	}
	if !c.Contains(0) {
		t.Fatal("Contains false for resident line")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 4 sets, 128B lines. Same-set addresses differ by 4*128.
	c := NewCache(1024, 128, 2)
	setStride := uint64(4 * 128)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Fill(a, false)
	c.Fill(b, false)
	c.Lookup(a, false) // refresh a: b is now LRU
	ev := c.Fill(d, false)
	if !ev.Valid || ev.LineAddr != b {
		t.Fatalf("evicted %+v, want line %d", ev, b)
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := NewCache(256, 128, 1) // direct-mapped, 2 sets
	c.Fill(0, true)
	ev := c.Fill(2*128, false) // same set 0
	if !ev.Valid || !ev.Dirty || ev.LineAddr != 0 {
		t.Fatalf("dirty eviction = %+v", ev)
	}
}

func TestCacheLookupMarkDirty(t *testing.T) {
	c := NewCache(256, 128, 1)
	c.Fill(0, false)
	c.Lookup(0, true)
	ev := c.Fill(2*128, false)
	if !ev.Dirty {
		t.Fatal("markDirty lookup did not dirty the line")
	}
}

func TestCacheRefillRefreshesNotEvicts(t *testing.T) {
	c := NewCache(256, 128, 2) // 1 set, 2 ways
	c.Fill(0, false)
	c.Fill(128, false)
	ev := c.Fill(0, true) // already present
	if ev.Valid {
		t.Fatalf("refill evicted %+v", ev)
	}
	// 0 was refreshed, so 128 is LRU.
	ev = c.Fill(256, false)
	if ev.LineAddr != 128 {
		t.Fatalf("evicted %d, want 128", ev.LineAddr)
	}
	// Refill marked 0 dirty.
	ev = c.Fill(384, false)
	if ev.LineAddr != 0 || !ev.Dirty {
		t.Fatalf("eviction = %+v, want dirty line 0", ev)
	}
}

func TestCacheCapacityProperty(t *testing.T) {
	// Property: after filling W distinct same-set lines into a W-way cache,
	// all W remain resident; a W+1'th evicts exactly one of them.
	f := func(waysRaw uint8, seed uint16) bool {
		ways := int(waysRaw%7) + 1
		sets := 8
		c := NewCache(sets*ways*128, 128, ways)
		set := uint64(seed) % uint64(sets)
		lineFor := func(i int) uint64 { return (uint64(i)*uint64(sets) + set) * 128 }
		for i := 0; i < ways; i++ {
			if ev := c.Fill(lineFor(i), false); ev.Valid {
				return false
			}
		}
		for i := 0; i < ways; i++ {
			if !c.Contains(lineFor(i)) {
				return false
			}
		}
		ev := c.Fill(lineFor(ways), false)
		return ev.Valid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMSHRBasic(t *testing.T) {
	m := NewMSHR(2, 2)
	if m.Pending(0) {
		t.Fatal("empty MSHR pending")
	}
	if !m.Allocate(0, 10) {
		t.Fatal("allocate failed on empty MSHR")
	}
	if !m.Pending(0) {
		t.Fatal("allocated line not pending")
	}
	if !m.Merge(0, 11) {
		t.Fatal("merge failed with capacity")
	}
	if m.Merge(0, 12) {
		t.Fatal("merge succeeded past capacity")
	}
	if !m.Allocate(128, 20) {
		t.Fatal("second allocate failed")
	}
	if !m.Full() {
		t.Fatal("MSHR not full at capacity")
	}
	if m.Allocate(256, 30) {
		t.Fatal("allocate succeeded on full MSHR")
	}
	toks := m.Complete(0)
	if len(toks) != 2 || toks[0] != 10 || toks[1] != 11 {
		t.Fatalf("Complete = %v, want [10 11]", toks)
	}
	if m.Pending(0) || m.Used() != 1 {
		t.Fatal("completion did not retire entry")
	}
	if got := m.Complete(999); got != nil {
		t.Fatalf("Complete on unknown line = %v, want nil", got)
	}
}

func TestMSHRAllocatePendingPanics(t *testing.T) {
	m := NewMSHR(4, 4)
	m.Allocate(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("Allocate on pending line did not panic")
		}
	}()
	m.Allocate(0, 2)
}

func TestMSHRMergeUnknownPanics(t *testing.T) {
	m := NewMSHR(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("Merge on unknown line did not panic")
		}
	}()
	m.Merge(0, 1)
}

// refCache is the tag store as a plain timestamp LRU, one struct a line:
// the reference the packed store is checked against.
type refCache struct {
	lines     []refLine
	ways      int
	setMask   uint64
	lineShift uint
	useClock  uint64
}

type refLine struct {
	tag          uint64
	valid, dirty bool
	lastUse      uint64
}

func (c *refCache) set(lineAddr uint64) ([]refLine, uint64) {
	tag := lineAddr >> c.lineShift
	base := int(tag&c.setMask) * c.ways
	return c.lines[base : base+c.ways], tag
}

func (c *refCache) lookup(lineAddr uint64, markDirty bool) bool {
	set, tag := c.set(lineAddr)
	for i := range set {
		if ln := &set[i]; ln.valid && ln.tag == tag {
			c.useClock++
			ln.lastUse = c.useClock
			ln.dirty = ln.dirty || markDirty
			return true
		}
	}
	return false
}

func (c *refCache) contains(lineAddr uint64) bool {
	set, tag := c.set(lineAddr)
	for _, ln := range set {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) fill(lineAddr uint64, dirty bool) Eviction {
	set, tag := c.set(lineAddr)
	c.useClock++
	victim := -1
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.useClock
			ln.dirty = ln.dirty || dirty
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
	if v := set[victim]; v.valid {
		ev = Eviction{LineAddr: v.tag << c.lineShift, Dirty: v.dirty, Valid: true}
	}
	set[victim] = refLine{tag: tag, valid: true, dirty: dirty, lastUse: c.useClock}
	return ev
}

// FuzzCacheTags drives the packed tag store and refCache through the same
// fuzzer-chosen sequence of lookups (clean or dirtying), probes and fills
// (clean or dirty) on a fuzzer-chosen geometry, and requires every answer and
// every eviction to agree. Addresses come from a few lines more than the
// cache holds, in up to four kernel address spaces, so sets conflict and
// high tag bits are set.
func FuzzCacheTags(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(2), uint8(29))
	f.Add(uint64(3), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		ways := 1 + int(shape%4)
		sets := 1 << (shape / 4 % 4)
		lineBytes := 1 << (shape / 16 % 8)
		c := NewCache(sets*ways*lineBytes, lineBytes, ways)
		ref := &refCache{lines: make([]refLine, sets*ways), ways: ways,
			setMask: uint64(sets - 1), lineShift: c.lineShift}
		rng := rand.New(rand.NewPCG(seed, uint64(shape)))
		lines := 2 * sets * ways
		for op := 0; op < 2000; op++ {
			addr := uint64(rng.IntN(4))<<33 + uint64(rng.IntN(lines)*lineBytes)
			switch k := rng.IntN(5); k {
			case 0, 1:
				if got, want := c.Lookup(addr, k == 1), ref.lookup(addr, k == 1); got != want {
					t.Fatalf("op %d: Lookup(%#x, %v) = %v, reference %v", op, addr, k == 1, got, want)
				}
			case 2:
				if got, want := c.Contains(addr), ref.contains(addr); got != want {
					t.Fatalf("op %d: Contains(%#x) = %v, reference %v", op, addr, got, want)
				}
			default:
				if got, want := c.Fill(addr, k == 4), ref.fill(addr, k == 4); got != want {
					t.Fatalf("op %d: Fill(%#x, %v) = %+v, reference %+v", op, addr, k == 4, got, want)
				}
			}
		}
	})
}
