package core

import "gpusched/internal/sm"

// RoundRobin is the baseline CTA scheduler: it keeps every core as full as
// its resources allow, handing out CTAs in grid order to cores in rotating
// order, at most one placement per cycle (the dispatch-bandwidth model used
// by GPGPU-Sim-class simulators). Kernels are served in launch order, so a
// second kernel only receives resources the first cannot use.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns the baseline dispatcher.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Dispatcher.
func (r *RoundRobin) Name() string { return "rr" }

// Tick implements Dispatcher.
func (r *RoundRobin) Tick(m Machine) {
	for _, ks := range m.Kernels() {
		if ks.Exhausted() {
			continue
		}
		n := m.NumCores()
		for i := 0; i < n; i++ {
			c := m.Core((r.next + i) % n)
			if c.CanAccept(ks.Spec) {
				place(m, ks, c, m.Now(), 0)
				r.next = (c.ID() + 1) % n
				return // one CTA per cycle
			}
		}
		return // cores full for the frontmost unfinished kernel: stop
	}
}

// OnCTAComplete implements Dispatcher; refills happen on subsequent Ticks.
func (r *RoundRobin) OnCTAComplete(Machine, int, *sm.CTA) {}

// NextDispatchEvent implements Dispatcher: placement depends only on
// machine state, so only a completion (or a placement) can change a no-op
// Tick into an active one.
func (r *RoundRobin) NextDispatchEvent(uint64) uint64 { return NeverEvent }
