// Package core implements the paper's contribution: thread-block (CTA)
// scheduling policies. A Dispatcher decides, cycle by cycle, which CTAs of
// which kernels are placed on which SMs:
//
//   - RoundRobin — the baseline: keep every SM at its occupancy-maximal CTA
//     count, assigning CTAs in grid order round-robin across cores.
//   - LCS — lazy CTA scheduling: start occupancy-maximal under a greedy
//     (GTO) warp scheduler, sample per-CTA issue counts until the first CTA
//     on a core completes, derive the useful CTA count from the issue
//     histogram (lcsLimit, which AdaptiveLCS's first decision shares), and
//     lazily stop refilling beyond it.
//   - BCS — block CTA scheduling: dispatch gangs of consecutive CTAs to the
//     same SM so inter-CTA locality lands in one L1 (paired with the BAWS
//     warp scheduler in internal/sm).
//   - Spatial / Mixed concurrent kernel execution — two kernels share the
//     GPU by partitioning cores (spatial) or by co-residing on every core
//     with LCS-derived per-kernel limits (mixed, the paper's proposal).
//
// Every dispatcher but Spatial (fixed regions) places through one rotating
// core scan, RoundRobin.scan, and keeps only its predicate. RoundRobin,
// Limited and the LCS family (LCS, AdaptiveLCS, DynCTA) share one rule,
// RoundRobin.fill, and differ only in the per-core limits on kernel 0.
package core

import (
	"gpusched/internal/kernel"
	"gpusched/internal/sm"
	"gpusched/internal/stats"
)

// KernelState is one launched kernel's dispatch bookkeeping, owned by the
// GPU front-end and manipulated by dispatchers.
type KernelState struct {
	// Spec is the launched kernel.
	Spec *kernel.Spec
	// Idx is the kernel's index in the launch table (stats bucket and
	// address-space id).
	Idx int
	// AddrBase is the kernel's global address-space offset.
	AddrBase uint64
	// NextCTA is the next undispatched linear CTA id.
	NextCTA int
	// Placed counts CTA placements, including re-dispatches of evicted
	// CTAs (which pop the requeue without advancing NextCTA). The cycle
	// loop's idle detection diffs it.
	Placed int
	// Completed counts retired CTAs.
	Completed int
	// Evicted counts drain-preemption evictions of this kernel's CTAs.
	Evicted int
	// LaunchCycle is when dispatch began; DoneCycle when the last CTA
	// retired.
	LaunchCycle uint64
	DoneCycle   uint64
	launched    bool
	// requeued holds evicted-but-unfinished CTA ids awaiting re-dispatch,
	// FIFO. Only the GPU's preemption commit appends (in core-index
	// order within a cycle) and only place pops, so the re-dispatch order is
	// deterministically keyed by (eviction cycle, core index).
	requeued []int
}

// Requeue appends an evicted CTA id for re-dispatch. Called by the GPU's
// preemption commit (core-index order), never from inside an SM's tick.
func (k *KernelState) Requeue(ctaID int) {
	k.requeued = append(k.requeued, ctaID)
	k.Evicted++
}

// PendingRequeue returns how many evicted CTAs await re-dispatch.
func (k *KernelState) PendingRequeue() int { return len(k.requeued) }

// Exhausted reports whether every CTA has been dispatched and no evicted
// CTA awaits re-dispatch.
func (k *KernelState) Exhausted() bool {
	return k.NextCTA >= k.Spec.NumCTAs() && len(k.requeued) == 0
}

// Done reports whether every CTA has retired.
func (k *KernelState) Done() bool { return k.Completed >= k.Spec.NumCTAs() }

// Remaining returns the number of CTAs still to dispatch (undispatched plus
// evicted awaiting re-dispatch).
func (k *KernelState) Remaining() int {
	return k.Spec.NumCTAs() - k.NextCTA + len(k.requeued)
}

// Machine is the view a Dispatcher has of the GPU.
type Machine interface {
	// Now returns the current cycle.
	Now() uint64
	// NumCores returns the SM count.
	NumCores() int
	// Core returns SM i.
	Core(i int) *sm.SM
	// CoreCounters returns SM i's counters through the current cycle,
	// including the cycles a parked SM has not yet stored.
	CoreCounters(i int) stats.Core
	// Kernels returns the launch table in launch order.
	Kernels() []*KernelState
	// Preempt asks core coreID to drain cta at the next CTA boundary. It
	// returns false when the CTA is no longer resident and running (e.g. a
	// natural completion raced the request). The eviction completes
	// asynchronously: once the CTA's in-flight memory work finishes it
	// leaves the core, its id joins the kernel's re-dispatch queue, and a
	// dispatcher implementing PreemptionObserver is notified.
	Preempt(coreID int, cta *sm.CTA) bool
}

// Dispatcher is a CTA scheduling policy.
type Dispatcher interface {
	// Tick runs once per cycle before the cores tick and may place CTAs.
	Tick(m Machine)
	// OnCTAComplete is called when a CTA retires, after the owning
	// KernelState counters were updated.
	OnCTAComplete(m Machine, coreID int, cta *sm.CTA)
	// NextDispatchEvent returns the earliest cycle >= now at which Tick may
	// do time-driven work. It is the certificate that lets the GPU cycle loop
	// skip provably-idle cycles across the dispatcher: as long as no CTA is
	// placed or completes, Tick is a pure no-op for every cycle in [now, that
	// bound) — no internal state changes, no placements, no counter updates.
	// Policies whose Tick does time-driven work (epoch controllers) return
	// their next boundary; policies that only react to machine state return
	// NeverEvent.
	NextDispatchEvent(now uint64) uint64
}

// PreemptionObserver is the optional Dispatcher extension notified when a
// drain eviction commits (serially, in core-index order within a cycle —
// the same discipline as OnCTAComplete). The evicted CTA's id has already
// joined its kernel's re-dispatch queue when the observer runs.
type PreemptionObserver interface {
	OnCTAEvicted(m Machine, coreID int, cta *sm.CTA)
}

// NeverEvent is the NextDispatchEvent bound meaning "no time-driven work:
// only a CTA placement or completion can change what Tick does".
const NeverEvent = ^uint64(0)

// place dispatches kernel ks's next CTA onto core c with the given BCS gang
// identity, stamping launch bookkeeping. Evicted CTAs re-dispatch first
// (FIFO from the requeue) so preempted work resumes before fresh CTAs start;
// every dispatcher therefore re-dispatches transparently.
func place(m Machine, ks *KernelState, c *sm.SM, blockKey uint64, indexInBlock int) *sm.CTA {
	if !ks.launched {
		ks.launched = true
		ks.LaunchCycle = m.Now()
	}
	id := ks.NextCTA
	if len(ks.requeued) > 0 {
		id = ks.requeued[0]
		copy(ks.requeued, ks.requeued[1:])
		ks.requeued = ks.requeued[:len(ks.requeued)-1]
	} else {
		ks.NextCTA++
	}
	ks.Placed++
	cta := c.AddCTA(ks.Spec, ks.Idx, id, ks.AddrBase, blockKey, indexInBlock, m.Now())
	return cta
}
