package core

import "gpusched/internal/sm"

// RoundRobin is the baseline CTA scheduler: it keeps every core as full as
// its resources allow, handing out CTAs in grid order to cores in rotating
// order, at most one placement per cycle (the dispatch-bandwidth model used
// by GPGPU-Sim-class simulators). Kernels are served in launch order, so a
// second kernel only receives resources the first cannot use.
//
// Its placement rule, fill, is also the one the throttling dispatchers
// (Limited, LCS, AdaptiveLCS, DynCTA) place through: they differ only in
// the per-core limits they hand it.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns the baseline dispatcher.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Tick implements Dispatcher.
func (r *RoundRobin) Tick(m Machine) { r.fill(m, nil) }

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

// fillKernel is fill's core scan for kernel ks.
func (r *RoundRobin) fillKernel(m Machine, ks *KernelState, limit []int) {
	n := m.NumCores()
	for i := 0; i < n; i++ {
		c := m.Core((r.next + i) % n)
		if ks.Idx == 0 && limit != nil && limit[c.ID()] > 0 && c.ResidentOf(0) >= limit[c.ID()] {
			continue // throttled
		}
		if c.CanAccept(ks.Spec) {
			place(m, ks, c, m.Now(), 0)
			r.next = (c.ID() + 1) % n
			return
		}
	}
}

// OnCTAComplete implements Dispatcher; refills happen on subsequent Ticks.
func (r *RoundRobin) OnCTAComplete(Machine, int, *sm.CTA) {}

// NextDispatchEvent implements Dispatcher: placement depends only on
// machine state, so only a completion (or a placement) can change a no-op
// Tick into an active one.
func (r *RoundRobin) NextDispatchEvent(uint64) uint64 { return NeverEvent }
