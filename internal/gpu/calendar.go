package gpu

import "slices"

// neverWake is the wake bound meaning "only an external wake can reactivate
// the item" — the calendar's mirror of sm.NeverEvent / mem.NeverEvent.
const neverWake = ^uint64(0)

// calendar is the cycle loop's schedule of components: one wake bound per SM
// and one per L2 partition, each a lower bound on the first cycle that
// component's Tick can do work, and the minimum of each kind, kept up to date
// as bounds move rather than rescanned. An item is due at cycle now when its
// bound is at most now. The loop's other bounds — the dispatcher's, the next
// arrival, the epoch hook and the context poll — are scalars of the GPU.
//
// Bounds only fall between visits: a visit stores the item's next bound, and
// a wake lowers it. Items are visited in ascending index and a skipped item
// exports nothing, so the order of the items that run is their index order
// whatever the park/wake history was.
type calendar struct {
	core, part       []uint64
	coreMin, partMin uint64
}

// reset starts a run: every SM is due at cycle 0, and no partition has work
// until a request is sent to it.
func (c *calendar) reset(cores, partitions int) {
	c.core = slices.Grow(c.core[:0], cores)[:cores]
	c.part = slices.Grow(c.part[:0], partitions)[:partitions]
	clear(c.core)
	for i := range c.part {
		c.part[i] = neverWake
	}
	c.coreMin, c.partMin = 0, neverWake
}

// WakeCore implements mem.Waker and is where every SM wake lands: core i
// must be visited at cycle at, or earlier if its bound already says so.
func (c *calendar) WakeCore(i int, at uint64) { lower(c.core, &c.coreMin, i, at) }

// WakePartition implements mem.Waker: partition i must be visited at cycle
// at, or earlier if its bound already says so.
func (c *calendar) WakePartition(i int, at uint64) { lower(c.part, &c.partMin, i, at) }

// lower lowers bounds[i] to at and keeps least, their minimum, with it. A
// wake can only make an item run sooner, so a spurious one is harmless.
func lower(bounds []uint64, least *uint64, i int, at uint64) {
	if at < bounds[i] {
		bounds[i] = at
		*least = min(*least, at)
	}
}

// visitDue visits, in ascending index, every item of bounds due at now,
// stores the next bound each visit returns, and recomputes least on the way.
// It reports whether any item was due. A returned bound at or before now
// makes the item due at the next step.
func visitDue(bounds []uint64, least *uint64, now uint64, visit func(i int) uint64) bool {
	if *least > now {
		return false
	}
	*least = neverWake // a wake during the pass lowers it
	m := uint64(neverWake)
	for i, at := range bounds {
		if at <= now {
			at = visit(i)
			bounds[i] = at
		}
		m = min(m, at)
	}
	*least = min(*least, m)
	return true
}
