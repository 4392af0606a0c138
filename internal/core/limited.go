package core

import "gpusched/internal/sm"

// Limited is the static-throttling dispatcher used by the motivation and
// oracle experiments: baseline round-robin placement, but no core ever
// holds more than Limit CTAs of kernel 0. Sweeping Limit from 1 to the
// occupancy maximum produces the paper's IPC-vs-CTA-count curves, and the
// best point of that sweep is the "oracle static" LCS is judged against.
type Limited struct {
	rr RoundRobin
	// Limit caps kernel 0's resident CTAs per core.
	Limit int
}

// NewLimited returns a dispatcher capping kernel 0 at limit CTAs per core.
func NewLimited(limit int) *Limited { return &Limited{Limit: limit} }

// Name implements Dispatcher.
func (l *Limited) Name() string { return "limited" }

// Tick implements Dispatcher.
func (l *Limited) Tick(m Machine) {
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
			if ks.Idx == 0 && l.Limit > 0 && c.ResidentOf(0) >= l.Limit {
				continue
			}
			place(m, ks, c, m.Now(), 0)
			l.rr.next = (c.ID() + 1) % n
			return
		}
		return
	}
}

// OnCTAComplete implements Dispatcher.
func (l *Limited) OnCTAComplete(Machine, int, *sm.CTA) {}

// NextDispatchEvent implements Dispatcher: the static cap is read-only.
func (l *Limited) NextDispatchEvent(uint64) uint64 { return NeverEvent }
