package gpu

// neverWake is the wake bound meaning "only an external wake can reactivate
// the item" — the activity set's mirror of sm.NeverEvent / mem.NeverEvent.
const neverWake = ^uint64(0)

// activitySet tracks which of n items (the GPU's SMs) have ready work this
// cycle: one flat table of wake cycles, scanned in ascending index. An item
// whose entry is 0 is active and visited by every tick; any other value is
// the cycle a parked item becomes runnable again (neverWake: only an external
// wake brings it back).
//
// Visits are always in ascending item index. A parked SM exports nothing, so
// skipping it cannot perturb the ones that run: the order of the SMs that
// tick is the index order of all SMs, whatever the park/wake history was.
type activitySet struct {
	wakeAt []uint64 // 0 = active; else pending wake cycle (never 0 while asleep)
	asleep int
}

// newActivitySet builds a set of n items, all initially active.
func newActivitySet(n int) *activitySet {
	return &activitySet{wakeAt: make([]uint64, n)}
}

// tick runs the SM step of cycle now: every item that is active, or whose
// wake cycle has arrived, is visited exactly once, in ascending index. visit
// returns the item's next wake bound — any value <= now+1 keeps it active; a
// later cycle (or neverWake) parks it until that cycle or an external wake.
// The bound must be conservative: the item must provably have nothing to do
// before it.
//
//gpulint:hotpath
func (a *activitySet) tick(now uint64, visit func(i int) uint64) {
	for i, at := range a.wakeAt {
		if at != 0 {
			if at > now {
				continue
			}
			a.wakeAt[i] = 0
			a.asleep--
		}
		if w := visit(i); w > now+1 {
			a.wakeAt[i] = w
			a.asleep++
		}
	}
}

// wake lowers item i's wake bound to at: a CTA was placed on a sleeping SM,
// a drain was requested, or a memory response is in flight toward it. Waking
// an active item, or waking a sleeper to a later cycle than it already has,
// is a no-op — wake can only make an item run sooner, so a spurious call is
// harmless.
func (a *activitySet) wake(i int, at uint64) {
	if at == 0 {
		at = 1 // cycle-0 wakes cannot exist: items start active at cycle 0
	}
	if cur := a.wakeAt[i]; cur > at {
		a.wakeAt[i] = at
	}
}

// horizon returns the earliest pending wake — the sleepers' contribution to
// the global fast-forward horizon. neverWake means every sleeping item waits
// on an external event.
func (a *activitySet) horizon() uint64 {
	h := neverWake
	for _, at := range a.wakeAt {
		if at != 0 && at < h {
			h = at
		}
	}
	return h
}

// idle reports whether a tick at cycle now would visit nothing: no item is
// active and no sleeper's wake cycle has arrived.
func (a *activitySet) idle(now uint64) bool {
	return a.asleep == len(a.wakeAt) && a.horizon() > now
}

// sleeping returns how many items are currently parked.
func (a *activitySet) sleeping() int { return a.asleep }
