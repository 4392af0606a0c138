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
// lazily — resident CTAs always run to completion.
//
// The controller here uses the fraction of scheduler slots that found no
// ready warp (issue-stall fraction) as the congestion signal, with
// hysteresis between two thresholds. That is a simplification of DYNCTA's
// C_mem/C_idle counters, but it is driven by the same observable — how
// often the core cannot issue — and produces the same up/down behaviour.
type DynCTA struct {
	rr RoundRobin

	// EpochCycles is the adjustment period (default 2048).
	EpochCycles uint64
	// HighStall and LowStall bound the hysteresis band on the issue-stall
	// fraction (defaults 0.7 / 0.4).
	HighStall float64
	LowStall  float64
	// MinLimit floors the descent (default 1).
	MinLimit int
	// KernelIdx selects the throttled kernel (default 0).
	KernelIdx int

	limit      []int
	lastEpoch  []uint64
	lastIssued []uint64
	lastStall  []uint64
	maxSeen    []int
}

// NewDynCTA returns the prior-work throttling dispatcher with defaults.
func NewDynCTA() *DynCTA {
	return &DynCTA{
		EpochCycles: 2048,
		HighStall:   0.7,
		LowStall:    0.4,
		MinLimit:    1,
	}
}

// Name implements Dispatcher.
func (d *DynCTA) Name() string { return "dyncta" }

// Limits returns the current per-core allowances (0 = not initialized).
func (d *DynCTA) Limits() []int { return d.limit }

func (d *DynCTA) ensure(n int) {
	if len(d.limit) >= n {
		return
	}
	d.limit = make([]int, n)
	d.lastEpoch = make([]uint64, n)
	d.lastIssued = make([]uint64, n)
	d.lastStall = make([]uint64, n)
	d.maxSeen = make([]int, n)
}

// Tick implements Dispatcher: epoch accounting plus baseline placement
// under the per-core allowance.
func (d *DynCTA) Tick(m Machine) {
	d.ensure(m.NumCores())
	now := m.Now()
	for i := 0; i < m.NumCores(); i++ {
		c := m.Core(i)
		if n := c.ResidentOf(d.KernelIdx); n > d.maxSeen[i] {
			d.maxSeen[i] = n
		}
		if d.limit[i] == 0 {
			// Uninitialized: start at the occupancy the baseline reaches.
			continue
		}
		if now-d.lastEpoch[i] >= d.epoch() {
			d.adjust(i, m.CoreCounters(i), now)
		}
	}
	// Placement: identical to the baseline but capped per core.
	for _, ks := range m.Kernels() {
		if ks.Exhausted() {
			continue
		}
		n := m.NumCores()
		for i := 0; i < n; i++ {
			c := m.Core((d.rr.next + i) % n)
			if !c.CanAccept(ks.Spec) {
				continue
			}
			if ks.Idx == d.KernelIdx && d.limit[c.ID()] > 0 &&
				c.ResidentOf(ks.Idx) >= d.limit[c.ID()] {
				continue
			}
			place(m, ks, c, now, 0)
			d.rr.next = (c.ID() + 1) % n
			return
		}
		return
	}
}

func (d *DynCTA) epoch() uint64 {
	if d.EpochCycles == 0 {
		return 2048
	}
	return d.EpochCycles
}

// adjust runs one controller step for core i from its counters c.
func (d *DynCTA) adjust(i int, c stats.Core, now uint64) {
	dc := now - d.lastEpoch[i]
	stalls := c.IssueStallCycles - d.lastStall[i]
	issued := c.InstrIssued - d.lastIssued[i]
	d.lastEpoch[i] = now
	d.lastStall[i] = c.IssueStallCycles
	d.lastIssued[i] = c.InstrIssued
	if dc == 0 || issued+stalls == 0 {
		return
	}
	stallFrac := float64(stalls) / float64(stalls+issued)
	switch {
	case stallFrac > d.HighStall && d.limit[i] > d.minLimit():
		d.limit[i]--
	case stallFrac < d.LowStall && d.limit[i] < d.maxSeen[i]:
		d.limit[i]++
	}
}

func (d *DynCTA) minLimit() int {
	if d.MinLimit < 1 {
		return 1
	}
	return d.MinLimit
}

// NextDispatchEvent implements Dispatcher. Unlike the pure policies,
// DynCTA's Tick does time-driven work: once a core's allowance is
// initialized, its controller fires when now reaches lastEpoch+EpochCycles.
// The skip bound is therefore the earliest epoch boundary over initialized
// cores; uninitialized cores only change state on completions.
func (d *DynCTA) NextDispatchEvent(now uint64) uint64 {
	next := uint64(NeverEvent)
	for i, lim := range d.limit {
		if lim == 0 {
			continue
		}
		if at := d.lastEpoch[i] + d.epoch(); at < next {
			next = at
		}
	}
	if next < now {
		return now // boundary already due: no skip
	}
	return next
}

// OnCTAComplete implements Dispatcher: the first completion on a core
// initializes its allowance to the occupancy it was running at.
func (d *DynCTA) OnCTAComplete(m Machine, coreID int, cta *sm.CTA) {
	d.ensure(m.NumCores())
	if cta.KernelIdx != d.KernelIdx || d.limit[coreID] != 0 {
		return
	}
	d.limit[coreID] = m.Core(coreID).ResidentOf(d.KernelIdx) + 1
	d.lastEpoch[coreID] = m.Now()
	c := m.CoreCounters(coreID)
	d.lastStall[coreID] = c.IssueStallCycles
	d.lastIssued[coreID] = c.InstrIssued
}
