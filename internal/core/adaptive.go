package core

import "gpusched/internal/sm"

// AdaptiveLCS extends lazy CTA scheduling with a probing descent. Plain LCS
// takes one measurement (the per-CTA issue histogram when the first CTA
// completes) and fixes the limit. That histogram under-estimates how much
// throttling cache-capacity-sensitive kernels tolerate: when every CTA is
// latency-bound, issue spreads almost evenly and the total/greedy ratio
// stays near the occupancy maximum even though fewer CTAs would thrash less.
//
// AdaptiveLCS keeps measuring the only counter LCS uses — instructions
// issued. After the initial ratio decision, each subsequent CTA completion
// on a core closes a measurement window; while the core's issue rate
// (instructions per cycle over the window) does not regress by more than
// Tolerance, the limit steps down one CTA at a time, still lazily (resident
// CTAs are never killed). The first regressing step is undone and the limit
// locks. Cores decide independently, exactly like LCS.
type AdaptiveLCS struct {
	rr RoundRobin

	limit   []int
	decided []bool
	locked  []bool

	lastCycle   []uint64
	lastInstr   []uint64
	completions []int
	bestRate    []float64
	bestLimit   []int
	maxAllowed  []int

	// Tolerance is the relative issue-rate regression that stops the
	// descent (default 0.03).
	Tolerance float64
	// MinLimit floors the descent (default 1).
	MinLimit int
	// KernelIdx selects the throttled kernel (default 0).
	KernelIdx int
	// MinWindowCycles and MinWindowCompletions gate how much evidence a
	// measurement window needs before the descent takes another step.
	MinWindowCycles      uint64
	MinWindowCompletions int
}

// NewAdaptiveLCS returns the adaptive variant with default tuning.
func NewAdaptiveLCS() *AdaptiveLCS {
	return &AdaptiveLCS{
		Tolerance:            0.03,
		MinLimit:             1,
		MinWindowCycles:      1500,
		MinWindowCompletions: 1,
	}
}

// Name implements Dispatcher.
func (a *AdaptiveLCS) Name() string { return "lcs-adaptive" }

// Limits returns the current per-core limits (0 = still sampling).
func (a *AdaptiveLCS) Limits() []int { return a.limit }

func (a *AdaptiveLCS) ensure(n int) {
	if len(a.limit) >= n {
		return
	}
	a.limit = make([]int, n)
	a.decided = make([]bool, n)
	a.locked = make([]bool, n)
	a.lastCycle = make([]uint64, n)
	a.lastInstr = make([]uint64, n)
	a.completions = make([]int, n)
	a.bestRate = make([]float64, n)
	a.bestLimit = make([]int, n)
	a.maxAllowed = make([]int, n)
}

// Tick implements Dispatcher (identical placement rule to LCS).
func (a *AdaptiveLCS) Tick(m Machine) {
	a.ensure(m.NumCores())
	for _, ks := range m.Kernels() {
		if ks.Exhausted() {
			continue
		}
		n := m.NumCores()
		for i := 0; i < n; i++ {
			c := m.Core((a.rr.next + i) % n)
			if !c.CanAccept(ks.Spec) {
				continue
			}
			if ks.Idx == a.KernelIdx && a.decided[c.ID()] &&
				c.ResidentOf(ks.Idx) >= a.limit[c.ID()] {
				continue
			}
			place(m, ks, c, m.Now(), 0)
			a.rr.next = (c.ID() + 1) % n
			return
		}
		return
	}
}

// NextDispatchEvent implements Dispatcher: like LCS, every internal
// transition (initial decision, probe step, lock) happens in OnCTAComplete.
func (a *AdaptiveLCS) NextDispatchEvent(uint64) uint64 { return NeverEvent }

// OnCTAComplete implements Dispatcher.
func (a *AdaptiveLCS) OnCTAComplete(m Machine, coreID int, cta *sm.CTA) {
	a.ensure(m.NumCores())
	if cta.KernelIdx != a.KernelIdx {
		return
	}
	c := m.Core(coreID)
	now := m.Now()
	if !a.decided[coreID] {
		// Initial decision: the LCS ratio.
		l := LCS{MinLimit: a.minLimit(), KernelIdx: a.KernelIdx}
		l.ensure(m.NumCores())
		a.limit[coreID] = l.computeLimit(m, coreID, cta)
		a.maxAllowed[coreID] = c.ResidentOf(a.KernelIdx) + 1
		a.decided[coreID] = true
		a.lastCycle[coreID] = now
		a.lastInstr[coreID] = c.InstrIssued()
		a.bestRate[coreID] = 0
		a.bestLimit[coreID] = a.limit[coreID]
		return
	}
	if a.locked[coreID] {
		return
	}
	if m.Kernels()[a.KernelIdx].Exhausted() {
		// Grid tail: resident counts drop naturally; rates stop meaning
		// anything. Freeze at the best limit seen.
		a.limit[coreID] = a.bestLimit[coreID]
		a.locked[coreID] = true
		return
	}
	if c.ResidentOf(a.KernelIdx) > a.limit[coreID] {
		// Still draining toward the new limit: rates measured now mix two
		// occupancy levels. Restart the window at steady state.
		a.lastCycle[coreID] = now
		a.lastInstr[coreID] = c.InstrIssued()
		a.completions[coreID] = 0
		return
	}
	a.completions[coreID]++
	dc := now - a.lastCycle[coreID]
	if a.completions[coreID] < a.minCompletions() || dc < a.MinWindowCycles {
		return // not enough evidence yet
	}
	rate := float64(c.InstrIssued()-a.lastInstr[coreID]) / float64(dc)
	a.lastCycle[coreID] = now
	a.lastInstr[coreID] = c.InstrIssued()
	a.completions[coreID] = 0

	if a.bestRate[coreID] > 0 && rate < a.bestRate[coreID]*(1-a.Tolerance) {
		// This limit regressed: restore the best and stop probing.
		a.limit[coreID] = a.bestLimit[coreID]
		a.locked[coreID] = true
		return
	}
	if rate > a.bestRate[coreID] {
		a.bestRate[coreID] = rate
		a.bestLimit[coreID] = a.limit[coreID]
	}
	if a.limit[coreID] > a.minLimit() {
		a.limit[coreID]--
	} else {
		a.limit[coreID] = a.bestLimit[coreID]
		a.locked[coreID] = true
	}
}

func (a *AdaptiveLCS) minCompletions() int {
	if a.MinWindowCompletions < 1 {
		return 1
	}
	return a.MinWindowCompletions
}

func (a *AdaptiveLCS) minLimit() int {
	if a.MinLimit < 1 {
		return 1
	}
	return a.MinLimit
}
