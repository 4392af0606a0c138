package gpu

// neverWake is the wake bound meaning "only an external wake can reactivate
// the item" — the activity set's mirror of sm.NeverEvent / mem.NeverEvent.
const neverWake = ^uint64(0)

// activitySet tracks which of n items (the GPU's SMs) have ready work this
// cycle. Every item is in exactly one of two places:
//
//   - the active list: items visited by every tick call, or
//   - the wake heap: sleeping items keyed by the cycle they become runnable.
//
// Membership is *derived* state — an item's authoritative status is its
// wakeAt entry (0 = active, otherwise the pending wake cycle), and the list
// and heap are indexes over it. The heap uses lazy deletion: wake lowers an
// item's bound by pushing a second entry, and tick/horizon discard any
// popped entry whose cycle no longer matches wakeAt. A stale entry can
// therefore make horizon conservative (too low), never unsafe (too high).
//
// Woken items rejoin at the tail of the active list, so the order tick
// visits items in depends on the run's park/wake history, not on item index.
// That is why everything an SM's tick exports is staged per core and
// committed in core-index order afterwards (DESIGN.md "Staged commit order").
type activitySet struct {
	active []int
	heap   []wakeItem
	wakeAt []uint64 // 0 = active; else pending wake cycle (never 0 while asleep)
	asleep int
}

// wakeItem is one heap entry: item idx wants to run at cycle at.
type wakeItem struct {
	at  uint64
	idx int
}

// newActivitySet builds a set of n items, all initially active.
func newActivitySet(n int) *activitySet {
	a := &activitySet{
		active: make([]int, n),
		wakeAt: make([]uint64, n),
	}
	for i := range a.active {
		a.active[i] = i
	}
	return a
}

// tick runs the SM step of cycle now: sleeping items whose wake cycle has
// arrived rejoin the active list, then every active item is visited exactly
// once. visit returns the item's next wake bound — any value <= now+1 keeps
// it active; a later cycle (or neverWake) parks it in the wake heap until
// that cycle or an external wake. The bound must be conservative: the item
// must provably have nothing to do before it.
//
//gpulint:hotpath
func (a *activitySet) tick(now uint64, visit func(i int) uint64) {
	for len(a.heap) > 0 && a.heap[0].at <= now {
		it := heapPop(&a.heap)
		if a.wakeAt[it.idx] != it.at {
			continue // stale: the item re-slept or was woken to another cycle
		}
		a.wakeAt[it.idx] = 0
		a.asleep--
		//gpulint:allow hotalloc append reuses the active list's backing array; capacity is bounded by the item count
		a.active = append(a.active, it.idx)
	}
	out := a.active[:0]
	for _, i := range a.active {
		w := visit(i)
		if w <= now+1 {
			out = append(out, i)
			continue
		}
		a.wakeAt[i] = w
		a.asleep++
		if w != neverWake {
			heapPush(&a.heap, wakeItem{at: w, idx: i})
		}
	}
	a.active = out
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
	cur := a.wakeAt[i]
	if cur == 0 || cur <= at {
		return
	}
	a.wakeAt[i] = at
	heapPush(&a.heap, wakeItem{at: at, idx: i})
}

// horizon returns the earliest pending wake — the sleepers' contribution to
// the global fast-forward horizon. Stale heads are discarded on the way.
// neverWake means every sleeping item waits on an external event.
func (a *activitySet) horizon() uint64 {
	for len(a.heap) > 0 && a.wakeAt[a.heap[0].idx] != a.heap[0].at {
		heapPop(&a.heap)
	}
	if len(a.heap) > 0 {
		return a.heap[0].at
	}
	return neverWake
}

// idle reports whether a tick at cycle now would visit nothing: no item is
// active and no sleeper's wake cycle has arrived.
func (a *activitySet) idle(now uint64) bool {
	return len(a.active) == 0 && a.horizon() > now
}

// sleeping returns how many items are currently parked.
func (a *activitySet) sleeping() int { return a.asleep }

// ---- binary min-heap over (at, idx) ----
// Ordered by wake cycle, ties by index, so pop order — and therefore the
// order items rejoin the active list — is a pure function of the set's
// contents, independent of insertion history.

func wakeLess(x, y wakeItem) bool {
	return x.at < y.at || (x.at == y.at && x.idx < y.idx)
}

//gpulint:hotpath
func heapPush(h *[]wakeItem, it wakeItem) {
	*h = append(*h, it)
	j := len(*h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !wakeLess((*h)[j], (*h)[p]) {
			break
		}
		(*h)[j], (*h)[p] = (*h)[p], (*h)[j]
		j = p
	}
}

//gpulint:hotpath
func heapPop(h *[]wakeItem) wakeItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		if l >= n {
			break
		}
		c := l
		if r < n && wakeLess(s[r], s[l]) {
			c = r
		}
		if !wakeLess(s[c], s[j]) {
			break
		}
		s[j], s[c] = s[c], s[j]
		j = c
	}
	return top
}
