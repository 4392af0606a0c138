// Package wakesync exercises the wakesync analyzer: sub-fields named by a
// //gpulint:lazy container annotation may only be read on the owner's own
// tick path (the owner replays itself to the current cycle) or in functions
// annotated //gpulint:synced.
package wakesync

type counters struct {
	Active uint64
	Stall  uint64
	Exact  uint64
}

// Core accrues Active and Stall lazily at its watermark; Exact is
// maintained eagerly and is safe to read anywhere.
type Core struct {
	syncedTo uint64
	// Stats is only valid up to syncedTo until a FastForward.
	//
	//gpulint:lazy Active,Stall accrued in FastForward; sync before serial reads
	Stats counters
}

// FastForward accrues the lazy counters — the write side is the
// watermark mechanism and is exempt.
func (c *Core) FastForward(to uint64) {
	if to <= c.syncedTo {
		return
	}
	c.Stats.Active += to - c.syncedTo
	c.syncedTo = to
}

// SyncTo is the funnel: it settles the watermark, then reads are valid.
//
//gpulint:synced the one funnel; reads happen after the FastForward
func (c *Core) SyncTo(now uint64) uint64 {
	c.FastForward(now)
	return c.Stats.Active
}

// Tick is the core's own tick path: a core at its own watermark reads freely.
//
//gpulint:phasea the core replays itself before reading
func (c *Core) Tick(now uint64) {
	c.FastForward(now)
	if c.Stats.Active > 10 {
		c.Stats.Stall++
	}
	c.helper()
}

// helper is reachable from Tick, so its reads are watermark-correct too.
func (c *Core) helper() uint64 {
	return c.Stats.Stall + c.Stats.Exact
}

// stale reads a lazy counter in serial code with no sync: the bug class.
func stale(c *Core) uint64 {
	return c.Stats.Stall // want "wakesync.stale reads lazily-accrued c.Stats.Stall outside the sync funnel"
}

// exact reads an eager counter: fine anywhere.
func exact(c *Core) uint64 {
	return c.Stats.Exact
}

// copyAll copies the whole container, lazy fields included.
func copyAll(c *Core) counters {
	return c.Stats // want "wakesync.copyAll copies c.Stats, whose Active/Stall are lazily accrued"
}

// justified reads after an out-of-band sync; the carve-out is a reviewed
// suppression.
func justified(c *Core) uint64 {
	return c.Stats.Active //gpulint:allow wakesync caller synced every core on the previous line
}

type other struct {
	//gpulint:lazy Missing accrued nowhere // want "//gpulint:lazy: counters has no field Missing"
	S counters
	//gpulint:lazy Active // want "//gpulint:lazy: field N is not of struct type"
	N uint64
	//gpulint:lazy // want "//gpulint:lazy needs the lazily-accrued sub-field names"
	B counters
}

//gpulint:synced // want "//gpulint:synced is not attached to a function declaration or literal"
var notAFunc = 1
