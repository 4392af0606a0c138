package core

import "gpusched/internal/sm"

// priorityKernel is the launch-table index of the latency-sensitive kernel
// Preemptive serves: kernel 1, the one that would otherwise wait behind
// kernel 0's launch-order priority.
const priorityKernel = 1

// Preemptive is the drain-based priority dispatcher: kernel 1 of the launch
// table is latency-sensitive, the rest are batch. Placement always
// serves the priority kernel first; when it has pending work but no core can
// accept a CTA, the dispatcher preempts batch CTAs at CTA boundaries —
// drain/switch preemption in Pai et al.'s taxonomy: the victim stops issuing,
// its in-flight memory work completes, the freed slot goes to the priority
// kernel, and the victim's CTA id re-enters its kernel's FIFO requeue to be
// re-run from scratch later.
//
// With DeadlineCycles == 0 preemption is eager: any pending priority work
// steals a slot. With a deadline, the online Predictor gates the steal: batch
// CTAs are only evicted while the priority kernel's predicted completion
// misses the deadline (or cannot be predicted yet — a starved kernel has no
// issue rate to extrapolate). Eviction works at SM granularity: one campaign
// core at a time (drainCore) drains its whole batch population, and batch
// re-dispatch onto that core is suppressed until a priority CTA lands there,
// so a large priority CTA cannot be starved by its own victims re-taking the
// freed space.
type Preemptive struct {
	rr RoundRobin

	// DeadlineCycles is the priority kernel's absolute completion deadline
	// in cycles from launch of the machine (all kernels arrive at cycle 0
	// in this model). 0 means eager preemption.
	DeadlineCycles uint64
	// EpochCycles is the control period for sampling and preemption
	// decisions (default 512).
	EpochCycles uint64

	// Drains counts accepted drain requests (test/report probe).
	Drains int

	pred       Predictor
	lastSample uint64
	sampled    bool
	// pendingDrain is the number of accepted drains not yet committed; the
	// controller runs one core-granularity campaign at a time and waits for
	// every victim of the current campaign to evict before starting another.
	pendingDrain int
	// drainCore is the core the current eviction campaign targets (-1 when
	// none).
	drainCore int
	// pressing is the controller's latest per-epoch verdict that the
	// priority kernel needs slots (pending work, eager or predicted to miss
	// its deadline). While pressing, batch dispatch pauses: re-placing
	// evicted batch CTAs into slots freed by completing priority CTAs would
	// only queue them up for another eviction.
	pressing bool
}

// NewPreemptive returns the drain-preemption dispatcher; deadline 0 means
// eager.
func NewPreemptive(deadline uint64) *Preemptive {
	return &Preemptive{
		DeadlineCycles: deadline,
		EpochCycles:    512,
		drainCore:      -1,
	}
}

func (p *Preemptive) epoch() uint64 {
	if p.EpochCycles == 0 {
		return 512
	}
	return p.EpochCycles
}

// priorityState returns the priority kernel's state, nil when the launch
// table has no kernel 1 (single-kernel runs degrade to round-robin).
func (p *Preemptive) priorityState(m Machine) *KernelState {
	kernels := m.Kernels()
	if len(kernels) <= priorityKernel {
		return nil
	}
	return kernels[priorityKernel]
}

// Tick implements Dispatcher: epoch work (rate sampling + preemption
// control) at epoch boundaries, then at most one placement per cycle.
func (p *Preemptive) Tick(m Machine) {
	now := m.Now()
	if !p.sampled || now-p.lastSample >= p.epoch() {
		p.sampled = true
		p.lastSample = now
		p.pred.Sample(m, now)
		p.maybePreempt(m, now)
	}
	p.placeOne(m)
}

// placeOne performs the cycle's placement: the priority kernel first, then
// the batch kernels in launch order. During an eviction campaign the batch
// pass skips the drained core so the freed space waits for a priority CTA.
func (p *Preemptive) placeOne(m Machine) {
	pk := p.priorityState(m)
	if pk == nil || pk.Exhausted() {
		p.drainCore = -1 // campaign over: the priority kernel needs nothing
		p.pressing = false
	}
	if pk != nil && !pk.Exhausted() {
		if c := p.rr.scan(m, func(c *sm.SM) bool { return c.CanAccept(pk.Spec) }); c != nil {
			place(m, pk, c, m.Now(), 0)
			if c.ID() == p.drainCore {
				p.drainCore = -1 // campaign succeeded
			}
			return
		}
	}
	if p.pressing {
		return // batch dispatch paused while the priority kernel needs slots
	}
	for _, ks := range m.Kernels() {
		if ks.Idx == priorityKernel || ks.Exhausted() {
			continue
		}
		// The drained core is reserved for the priority kernel.
		if c := p.rr.scan(m, func(c *sm.SM) bool { return c.ID() != p.drainCore && c.CanAccept(ks.Spec) }); c != nil {
			place(m, ks, c, m.Now(), 0)
		}
		return // placed, or cores full for the frontmost batch kernel: stop
	}
}

// maybePreempt runs the per-epoch preemption controller.
func (p *Preemptive) maybePreempt(m Machine, now uint64) {
	pk := p.priorityState(m)
	if pk == nil || pk.Exhausted() {
		p.pressing = false
		return // no pending priority work
	}
	if p.pendingDrain > 0 {
		return // a drain is still committing; decide again next epoch
	}
	for i := 0; i < m.NumCores(); i++ {
		if m.Core(i).CanAccept(pk.Spec) {
			p.pressing = false
			return // capacity exists: normal placement serves the kernel
		}
	}
	if p.DeadlineCycles > 0 {
		if done, ok := p.pred.PredictedDone(m, priorityKernel, now); ok && done <= p.DeadlineCycles {
			p.pressing = false
			return // on track: don't pay the preemption cost
		}
	}
	p.pressing = true
	coreID := p.pickVictimCore(m)
	if coreID < 0 {
		return // every core is already all priority work (or draining)
	}
	// Drain the whole core's batch population at once (SM-granularity
	// drain/switch). Evicting one CTA at a time serializes slot acquisition
	// behind each victim's memory quiesce — against a memory-bound batch
	// kernel the priority kernel would trickle in one slot per round trip.
	for _, cta := range m.Core(coreID).CTAs() {
		if cta.KernelIdx == priorityKernel || cta.State() != sm.CTARunning {
			continue
		}
		if m.Preempt(coreID, cta) {
			p.pendingDrain++
			p.Drains++
			p.drainCore = coreID
		}
	}
}

// pickVictimCore selects the core whose batch CTAs will drain: the campaign
// core if it still holds running batch CTAs, otherwise the core with the
// most — ties to the lowest index. Returns -1 when no core holds a running
// batch CTA.
func (p *Preemptive) pickVictimCore(m Machine) int {
	runningBatch := func(coreID int) int {
		count := 0
		for _, cta := range m.Core(coreID).CTAs() {
			if cta.KernelIdx != priorityKernel && cta.State() == sm.CTARunning {
				count++
			}
		}
		return count
	}
	if p.drainCore >= 0 && runningBatch(p.drainCore) > 0 {
		return p.drainCore
	}
	core, best := -1, 0
	for i := 0; i < m.NumCores(); i++ {
		if n := runningBatch(i); n > best {
			best, core = n, i
		}
	}
	return core
}

// OnCTAComplete implements Dispatcher: completions feed the cost model.
func (p *Preemptive) OnCTAComplete(m Machine, coreID int, cta *sm.CTA) {
	p.pred.OnCTAComplete(m, cta)
}

// OnCTAEvicted implements PreemptionObserver: the commit of our drain
// request re-arms the controller.
func (p *Preemptive) OnCTAEvicted(m Machine, coreID int, cta *sm.CTA) {
	if p.pendingDrain > 0 {
		p.pendingDrain--
	}
}

// NextDispatchEvent implements Dispatcher: between epoch boundaries Tick
// only attempts placements, which are no-ops while the machine is frozen, so
// the next time-driven work is the next epoch boundary.
func (p *Preemptive) NextDispatchEvent(now uint64) uint64 {
	if !p.sampled {
		return now
	}
	next := p.lastSample + p.epoch()
	if next < now {
		return now
	}
	return next
}
