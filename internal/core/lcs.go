package core

import (
	"math"

	"gpusched/internal/sm"
)

// LCS implements lazy CTA scheduling. Each core launches at its
// occupancy-maximal CTA count under a greedy (GTO) warp scheduler. GTO
// concentrates issue slots on the oldest CTA, so the per-CTA issued
// instruction counts the SM already tracks form a measurement: when the
// first CTA on a core completes, lcsLimit's ratio
//
//	nOpt = round(totalIssuedOnCore / issuedByFirstFinishedCTA)
//
// estimates how many CTAs' worth of issue the core actually sustained
// during one CTA lifetime. If the core saturates with few CTAs (compute
// bound, or memory bound on bandwidth), younger CTAs issue little and the
// ratio is small; the extra CTAs only widen the cache footprint and deepen
// memory queues. The limit is applied lazily: resident CTAs run to
// completion, but slots beyond nOpt are not refilled. LCS throttles kernel
// 0; any other kernel is placed by the baseline rule.
//
// The abstract commits to exactly this measurement hook ("determine the
// optimal number of thread blocks by only measuring the number of
// instructions issued" under a greedy warp scheduler); the clamp bound and
// per-core decision are this implementation's reconstruction.
type LCS struct {
	rr RoundRobin
	// limit[coreID] is the per-core CTA cap; 0 = undecided (use max).
	limit []int
}

// NewLCS returns a lazy CTA scheduling dispatcher.
func NewLCS() *LCS { return &LCS{} }

// Name implements Dispatcher.
func (l *LCS) Name() string { return "lcs" }

// Limits returns the per-core decisions (0 = still sampling). The slice is
// live; callers must not mutate it.
func (l *LCS) Limits() []int { return l.limit }

func (l *LCS) ensure(n int) {
	if len(l.limit) < n {
		l.limit = make([]int, n)
	}
}

// Tick implements Dispatcher: baseline round-robin placement, except that a
// decided core is not refilled beyond its limit.
func (l *LCS) Tick(m Machine) {
	l.ensure(m.NumCores())
	l.rr.fill(m, l.limit)
}

// NextDispatchEvent implements Dispatcher: limits change only in
// OnCTAComplete, and placement reads only machine state.
func (l *LCS) NextDispatchEvent(uint64) uint64 { return NeverEvent }

// OnCTAComplete implements Dispatcher: the first completion on a core ends
// its sampling epoch and fixes the limit.
func (l *LCS) OnCTAComplete(m Machine, coreID int, cta *sm.CTA) {
	l.ensure(m.NumCores())
	if cta.KernelIdx == 0 && l.limit[coreID] == 0 {
		l.limit[coreID] = lcsLimit(m.Core(coreID), cta)
	}
}

// lcsLimit is the LCS decision for core c when finished, the first kernel-0
// CTA to complete there, has just left it: the issue of the CTAs that ran
// together (finished and kernel 0's residents) over finished's own, rounded,
// and at most the occupancy c was running at. It is at least 1, because the
// total includes finished's issue.
func lcsLimit(c *sm.SM, finished *sm.CTA) int {
	total, running := finished.Issued, 1
	for _, r := range c.CTAs() {
		if r.KernelIdx == 0 {
			total += r.Issued
			running++
		}
	}
	if finished.Issued == 0 {
		return running
	}
	return min(running, int(math.Round(float64(total)/float64(finished.Issued))))
}
