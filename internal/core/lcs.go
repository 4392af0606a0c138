package core

import (
	"math"

	"gpusched/internal/sm"
)

// LCS implements lazy CTA scheduling. Each core launches at its
// occupancy-maximal CTA count under a greedy (GTO) warp scheduler. GTO
// concentrates issue slots on the oldest CTA, so the per-CTA issued
// instruction counts the SM already tracks form a measurement: when the
// first CTA on a core completes, the ratio
//
//	nOpt = round(totalIssuedOnCore / issuedByFirstFinishedCTA)
//
// estimates how many CTAs' worth of issue the core actually sustained
// during one CTA lifetime. If the core saturates with few CTAs (compute
// bound, or memory bound on bandwidth), younger CTAs issue little and the
// ratio is small; the extra CTAs only widen the cache footprint and deepen
// memory queues. The limit is applied lazily: resident CTAs run to
// completion, but slots beyond nOpt are not refilled.
//
// The abstract commits to exactly this measurement hook ("determine the
// optimal number of thread blocks by only measuring the number of
// instructions issued" under a greedy warp scheduler); the clamp bounds and
// per-core decision are this implementation's reconstruction.
type LCS struct {
	rr RoundRobin
	// limit[coreID] is the per-core CTA cap; 0 = undecided (use max).
	limit []int
	// decided[coreID] marks cores whose sampling epoch ended.
	decided []bool
	// MinLimit floors the decision (default 1).
	MinLimit int
	// KernelIdx selects which kernel LCS throttles (others, if any, are
	// dispatched by the baseline rule). Default 0.
	KernelIdx int
}

// NewLCS returns a lazy CTA scheduling dispatcher.
func NewLCS() *LCS { return &LCS{MinLimit: 1} }

// Name implements Dispatcher.
func (l *LCS) Name() string { return "lcs" }

// Limits returns the per-core decisions (0 = still sampling). The slice is
// live; callers must not mutate it.
func (l *LCS) Limits() []int { return l.limit }

// DecidedLimit returns the most common decided limit (the value the
// mixed-CKE allocator consumes), or fallback when no core has decided.
func (l *LCS) DecidedLimit(fallback int) int {
	counts := map[int]int{}
	for i, d := range l.decided {
		if d && l.limit[i] > 0 {
			counts[l.limit[i]]++
		}
	}
	best, bestN := fallback, 0
	//gpulint:ordered-irrelevant argmax with a total tie-break (higher count, then smaller value) selects the same winner in any iteration order
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

func (l *LCS) ensure(n int) {
	if len(l.limit) < n {
		l.limit = make([]int, n)
		l.decided = make([]bool, n)
	}
}

// Tick implements Dispatcher: baseline round-robin placement, except that a
// decided core is not refilled beyond its limit.
func (l *LCS) Tick(m Machine) {
	l.ensure(m.NumCores())
	for _, ks := range m.Kernels() {
		if ks.Exhausted() {
			continue
		}
		n := m.NumCores()
		for i := 0; i < n; i++ {
			c := m.Core((l.rr.next + i) % n)
			if !c.CanAccept(ks.Spec) {
				continue
			}
			if ks.Idx == l.KernelIdx && l.decided[c.ID()] &&
				c.ResidentOf(ks.Idx) >= l.limit[c.ID()] {
				continue // lazily throttled
			}
			place(m, ks, c, m.Now(), 0)
			l.rr.next = (c.ID() + 1) % n
			return
		}
		return
	}
}

// NextDispatchEvent implements Dispatcher: limits change only in
// OnCTAComplete, and placement reads only machine state.
func (l *LCS) NextDispatchEvent(uint64) uint64 { return NeverEvent }

// OnCTAComplete implements Dispatcher: the first completion on a core ends
// its sampling epoch and fixes the limit.
func (l *LCS) OnCTAComplete(m Machine, coreID int, cta *sm.CTA) {
	l.ensure(m.NumCores())
	if cta.KernelIdx != l.KernelIdx || l.decided[coreID] {
		return
	}
	l.decided[coreID] = true
	l.limit[coreID] = l.computeLimit(m, coreID, cta)
}

// computeLimit derives nOpt from the issue histogram at epoch end.
func (l *LCS) computeLimit(m Machine, coreID int, finished *sm.CTA) int {
	c := m.Core(coreID)
	total := finished.Issued
	resident := 0
	for _, r := range c.CTAs() {
		if r.KernelIdx != l.KernelIdx {
			continue
		}
		total += r.Issued
		resident++
	}
	maxCTAs := resident + 1 // the occupancy the core was running at
	if finished.Issued == 0 {
		return maxCTAs
	}
	n := int(math.Round(float64(total) / float64(finished.Issued)))
	if n < l.MinLimit {
		n = l.MinLimit
	}
	if n > maxCTAs {
		n = maxCTAs
	}
	return n
}
