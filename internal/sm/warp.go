package sm

import (
	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

// notReady is the scoreboard sentinel for a register whose producing load
// has not yet returned.
const notReady = ^uint64(0)

// Warp is one resident warp context.
type Warp struct {
	// seq is the core-unique warp number, the final age tie-breaker.
	seq uint64
	// cta is the owning resident CTA.
	cta *CTA
	// warpInCTA is the warp's index within its CTA.
	warpInCTA int

	// sched is the owning issue slot and slot the warp's index in its age
	// order; the scheduler's sets and stall cache are indexed by it.
	sched *scheduler
	slot  int

	prog     isa.Program
	cur      isa.WarpInstr
	curValid bool

	finished bool

	// readyAt[r] is the cycle register r's pending write completes;
	// 0 means no write pending. Register 0 is hardwired ready.
	readyAt [isa.MaxRegs]uint64
}

// fetch ensures cur holds the next unissued instruction. Returns false when
// the program is exhausted (treated as an implicit exit).
func (w *Warp) fetch() bool {
	if w.curValid {
		return true
	}
	if w.prog.Next(&w.cur) {
		w.curValid = true
		return true
	}
	return false
}

// CTAState is a resident CTA's position in the preemption lifecycle.
type CTAState uint8

const (
	// CTARunning is the normal state: warps issue freely.
	CTARunning CTAState = iota
	// CTADraining means a preemption drain is in progress: the CTA's warps
	// issue no further instructions, and the CTA leaves the core as soon as
	// its in-flight memory work (memRefs) reaches zero.
	CTADraining
	// CTAEvicted marks a CTA drained off its core before completing. The
	// object is no longer resident; the dispatcher re-dispatches the CTA id
	// from scratch (redone work is the preemption cost this model charges).
	CTAEvicted
)

// CTA is one resident cooperative thread array on an SM.
type CTA struct {
	// Spec is the launched kernel.
	Spec *kernel.Spec
	// KernelIdx identifies the kernel within the GPU's launch table
	// (stats routing and address-space selection).
	KernelIdx int
	// ID is the linear CTA index within the grid.
	ID int
	// AddrBase is the kernel's global-address-space offset; lane addresses
	// are 32-bit offsets into it.
	AddrBase uint64
	// Arrival is the cycle the CTA was placed on the SM — the GTO age.
	Arrival uint64
	// BlockKey is the BAWS age: equal for all CTAs dispatched as one BCS
	// block. Under non-BCS dispatch it equals Arrival.
	BlockKey uint64
	// IndexInBlock orders CTAs within a BCS block.
	IndexInBlock int
	// Issued counts instructions issued by this CTA's warps — the LCS probe.
	Issued uint64

	warps     []*Warp
	liveWarps int
	barCount  int
	// state is the preemption lifecycle position (see CTAState).
	state CTAState
	// memRefs counts live LDST references to this CTA's warps: one per
	// queued memory instruction (accept→popHead) plus one per outstanding
	// pending-load token (accept→final completeOne). A draining CTA may be
	// evicted only at memRefs == 0 — no later response can then touch a
	// warp that is gone.
	memRefs int
	// recycleArmed marks a CTA whose retirement was committed while memory
	// work was still in flight (a trailing store): the LDST unit pools the
	// context when the last reference drains. See SM.Recycle.
	recycleArmed bool
}

// State returns the CTA's preemption lifecycle state.
func (c *CTA) State() CTAState { return c.state }

// Live returns the number of warps that have not exited.
func (c *CTA) Live() int { return c.liveWarps }

// Warps exposes the CTA's warp contexts (tests and probes).
func (c *CTA) Warps() []*Warp { return c.warps }
