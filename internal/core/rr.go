package core

import "gpusched/internal/sm"

// RoundRobin is the baseline CTA scheduler: it keeps every core as full as
// its resources allow, handing out CTAs in grid order to cores in rotating
// order, at most one placement per cycle (the dispatch-bandwidth model used
// by GPGPU-Sim-class simulators). Kernels are served in launch order, so a
// second kernel only receives resources the first cannot use.
//
// Every rotating dispatcher places through its core scan, scan, and the
// throttling ones (Limited and the LCS family) through its rule, fill, under
// their per-core limits. A dispatcher that reacts to no completion and does
// no time-driven work embeds RoundRobin for its no-op OnCTAComplete and
// NextDispatchEvent.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns the baseline dispatcher.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Tick implements Dispatcher.
func (r *RoundRobin) Tick(m Machine) { r.fill(m, nil) }

// scan returns the first core, counting from next, that ok accepts, and
// moves next past it. It returns nil, and leaves next, when ok accepts none.
func (r *RoundRobin) scan(m Machine, ok func(*sm.SM) bool) *sm.SM {
	n := m.NumCores()
	for i := 0; i < n; i++ {
		if c := m.Core((r.next + i) % n); ok(c) {
			r.next = (c.ID() + 1) % n
			return c
		}
	}
	return nil
}

// fill places at most one CTA (one placement per cycle): one of the
// frontmost kernel with CTAs left, on the first core from next that can
// accept it. Core i takes kernel 0 — the throttled kernel — only while it
// holds fewer than limit[i] of its CTAs; a 0, or a nil limit, leaves the
// core uncapped. When no core takes the frontmost kernel, nothing is placed.
func (r *RoundRobin) fill(m Machine, limit []int) {
	for _, ks := range m.Kernels() {
		if !ks.Exhausted() {
			r.fillKernel(m, ks, limit)
			return
		}
	}
}

// fillKernel is fill's placement of kernel ks.
func (r *RoundRobin) fillKernel(m Machine, ks *KernelState, limit []int) {
	c := r.scan(m, func(c *sm.SM) bool {
		if ks.Idx == 0 && limit != nil && limit[c.ID()] > 0 && c.ResidentOf(0) >= limit[c.ID()] {
			return false // throttled
		}
		return c.CanAccept(ks.Spec)
	})
	if c != nil {
		place(m, ks, c, m.Now(), 0)
	}
}

// OnCTAComplete implements Dispatcher; refills happen on subsequent Ticks.
func (r *RoundRobin) OnCTAComplete(Machine, int, *sm.CTA) {}

// NextDispatchEvent implements Dispatcher: placement depends only on
// machine state, so only a completion (or a placement) can change a no-op
// Tick into an active one.
func (r *RoundRobin) NextDispatchEvent(uint64) uint64 { return NeverEvent }

// throttle is what the LCS family (LCS, AdaptiveLCS, DynCTA) shares:
// RoundRobin placement under per-core limits on kernel 0 that the embedding
// policy decides. Each policy keeps only its decision.
type throttle struct {
	RoundRobin
	// limit[coreID] caps kernel 0's resident CTAs on the core; 0 =
	// undecided (uncapped).
	limit []int
}

// Limits returns the per-core limits (0 = undecided). The slice is live;
// callers must not mutate it.
func (t *throttle) Limits() []int { return t.limit }

func (t *throttle) ensure(n int) {
	if len(t.limit) < n {
		t.limit = make([]int, n)
	}
}

// Tick implements Dispatcher: baseline placement, except that a decided
// core is not refilled beyond its limit.
func (t *throttle) Tick(m Machine) {
	t.ensure(m.NumCores())
	t.fill(m, t.limit)
}
