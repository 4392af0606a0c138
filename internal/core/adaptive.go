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
// issued. After the initial ratio decision (lcsLimit), each subsequent CTA
// completion on a core closes a measurement window of at least
// adaptiveWindowCycles; while the core's issue rate (instructions per cycle
// over the window) does not regress by more than adaptiveTolerance, the
// limit steps down one CTA at a time, still lazily (resident CTAs are never
// killed). The first regressing step is undone and the limit locks. Cores
// decide independently, exactly like LCS, and like LCS it throttles kernel 0.
type AdaptiveLCS struct {
	rr    RoundRobin
	limit []int // 0 = still sampling
	probe []adaptiveProbe
}

// adaptiveProbe is one core's descent state after its initial decision.
type adaptiveProbe struct {
	locked    bool
	lastCycle uint64 // the open window's start
	lastInstr uint64 // the core's issue count at lastCycle
	bestRate  float64
	bestLimit int
}

const (
	// adaptiveTolerance is the relative issue-rate regression that stops
	// the descent.
	adaptiveTolerance = 0.03
	// adaptiveWindowCycles is the shortest measurement window.
	adaptiveWindowCycles = 1500
)

// NewAdaptiveLCS returns the adaptive variant.
func NewAdaptiveLCS() *AdaptiveLCS { return &AdaptiveLCS{} }

// Name implements Dispatcher.
func (a *AdaptiveLCS) Name() string { return "lcs-adaptive" }

// Limits returns the current per-core limits (0 = still sampling).
func (a *AdaptiveLCS) Limits() []int { return a.limit }

func (a *AdaptiveLCS) ensure(n int) {
	if len(a.limit) < n {
		a.limit = make([]int, n)
		a.probe = make([]adaptiveProbe, n)
	}
}

// Tick implements Dispatcher (the same placement rule as LCS).
func (a *AdaptiveLCS) Tick(m Machine) {
	a.ensure(m.NumCores())
	a.rr.fill(m, a.limit)
}

// NextDispatchEvent implements Dispatcher: like LCS, every internal
// transition (initial decision, probe step, lock) happens in OnCTAComplete.
func (a *AdaptiveLCS) NextDispatchEvent(uint64) uint64 { return NeverEvent }

// OnCTAComplete implements Dispatcher.
func (a *AdaptiveLCS) OnCTAComplete(m Machine, coreID int, cta *sm.CTA) {
	a.ensure(m.NumCores())
	if cta.KernelIdx != 0 {
		return
	}
	c, now := m.Core(coreID), m.Now()
	limit, p := &a.limit[coreID], &a.probe[coreID]
	switch {
	case *limit == 0:
		// Initial decision: the LCS ratio.
		*limit = lcsLimit(c, cta)
		*p = adaptiveProbe{lastCycle: now, lastInstr: c.InstrIssued(), bestLimit: *limit}
		return
	case p.locked:
		return
	case m.Kernels()[0].Exhausted():
		// Grid tail: resident counts drop naturally; rates stop meaning
		// anything. Freeze at the best limit seen.
		*limit, p.locked = p.bestLimit, true
		return
	case c.ResidentOf(0) > *limit:
		// Still draining toward the new limit: rates measured now mix two
		// occupancy levels. Restart the window at steady state.
		p.lastCycle, p.lastInstr = now, c.InstrIssued()
		return
	}
	dc := now - p.lastCycle
	if dc < adaptiveWindowCycles {
		return // not enough evidence yet
	}
	rate := float64(c.InstrIssued()-p.lastInstr) / float64(dc)
	p.lastCycle, p.lastInstr = now, c.InstrIssued()

	if p.bestRate > 0 && rate < p.bestRate*(1-adaptiveTolerance) {
		// This limit regressed: restore the best and stop probing.
		*limit, p.locked = p.bestLimit, true
		return
	}
	if rate > p.bestRate {
		p.bestRate, p.bestLimit = rate, *limit
	}
	if *limit > 1 {
		*limit--
	} else {
		*limit, p.locked = p.bestLimit, true
	}
}
