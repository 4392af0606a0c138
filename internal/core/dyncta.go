package core

import (
	"gpusched/internal/sm"
	"gpusched/internal/stats"
)

// DynCTA reimplements the DYNCTA-style dynamic CTA throttling of Kayiran et
// al. (PACT 2013), the prior work the paper compares against. Where LCS
// takes one histogram measurement per core, DYNCTA runs a feedback loop on
// coarse stall statistics: every epoch, a core whose issue slots mostly
// idle on memory lowers its CTA allowance by one, and a core that is busy
// (or idling for lack of work) raises it. Like LCS the limit is enforced
// lazily — resident CTAs always run to completion — and applies to kernel 0.
//
// The controller here uses the fraction of scheduler slots that found no
// ready warp (issue-stall fraction) as the congestion signal, with
// hysteresis between dynHighStall and dynLowStall. That is a simplification
// of DYNCTA's C_mem/C_idle counters, but it is driven by the same
// observable — how often the core cannot issue — and produces the same
// up/down behaviour.
type DynCTA struct {
	throttle

	// EpochCycles is the adjustment period (default 2048).
	EpochCycles uint64

	epoch []dynEpoch
}

// dynEpoch is one core's controller state.
type dynEpoch struct {
	start   uint64 // the open epoch's first cycle
	issued  uint64 // the core's InstrIssued at start
	stalls  uint64 // the core's IssueStallCycles at start
	maxSeen int    // the most kernel-0 CTAs the core has held
}

// The hysteresis band on the issue-stall fraction: above dynHighStall the
// allowance drops, below dynLowStall it rises.
const (
	dynHighStall = 0.7
	dynLowStall  = 0.4
)

// NewDynCTA returns the prior-work throttling dispatcher with defaults.
func NewDynCTA() *DynCTA { return &DynCTA{EpochCycles: 2048} }

func (d *DynCTA) ensure(n int) {
	d.throttle.ensure(n)
	if len(d.epoch) < n {
		d.epoch = make([]dynEpoch, n)
	}
}

// Tick implements Dispatcher: epoch accounting plus baseline placement
// under the per-core allowance.
func (d *DynCTA) Tick(m Machine) {
	d.ensure(m.NumCores())
	now := m.Now()
	for i := 0; i < m.NumCores(); i++ {
		e := &d.epoch[i]
		e.maxSeen = max(e.maxSeen, m.Core(i).ResidentOf(0))
		// An uninitialized core starts at the occupancy the baseline reaches.
		if d.limit[i] != 0 && now-e.start >= d.epochCycles() {
			d.adjust(i, m.CoreCounters(i), now)
		}
	}
	d.fill(m, d.limit)
}

func (d *DynCTA) epochCycles() uint64 {
	if d.EpochCycles == 0 {
		return 2048
	}
	return d.EpochCycles
}

// adjust runs one controller step for core i from its counters c.
func (d *DynCTA) adjust(i int, c stats.Core, now uint64) {
	e := &d.epoch[i]
	dc := now - e.start
	stalls := c.IssueStallCycles - e.stalls
	issued := c.InstrIssued - e.issued
	e.start, e.stalls, e.issued = now, c.IssueStallCycles, c.InstrIssued
	if dc == 0 || issued+stalls == 0 {
		return
	}
	stallFrac := float64(stalls) / float64(stalls+issued)
	switch {
	case stallFrac > dynHighStall && d.limit[i] > 1:
		d.limit[i]--
	case stallFrac < dynLowStall && d.limit[i] < e.maxSeen:
		d.limit[i]++
	}
}

// NextDispatchEvent implements Dispatcher. Unlike the pure policies,
// DynCTA's Tick does time-driven work: once a core's allowance is
// initialized, its controller fires when now reaches its epoch start plus
// EpochCycles. The skip bound is therefore the earliest epoch boundary over
// initialized cores; uninitialized cores only change state on completions.
func (d *DynCTA) NextDispatchEvent(now uint64) uint64 {
	next := uint64(NeverEvent)
	for i, lim := range d.limit {
		if lim != 0 {
			next = min(next, d.epoch[i].start+d.epochCycles())
		}
	}
	return max(next, now) // a boundary already due: no skip
}

// OnCTAComplete implements Dispatcher: the first completion on a core
// initializes its allowance to the occupancy it was running at.
func (d *DynCTA) OnCTAComplete(m Machine, coreID int, cta *sm.CTA) {
	d.ensure(m.NumCores())
	if cta.KernelIdx != 0 || d.limit[coreID] != 0 {
		return
	}
	d.limit[coreID] = m.Core(coreID).ResidentOf(0) + 1
	c := m.CoreCounters(coreID)
	e := &d.epoch[coreID]
	e.start, e.stalls, e.issued = m.Now(), c.IssueStallCycles, c.InstrIssued
}
