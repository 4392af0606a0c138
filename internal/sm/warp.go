package sm

import (
	"math/bits"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

// notReady is the scoreboard sentinel for a register whose producing load
// has not yet returned.
const notReady = ^uint64(0)

// instr is the part of a fetched isa.WarpInstr the core keeps: everything
// canIssue, execute and the LDST unit read but a global op's lane
// addresses, which the LDST unit reads at accept (Warp.lanes).
type instr struct {
	Op           isa.Op
	Dst          isa.Reg
	Src          [3]isa.Reg
	BankConflict uint8
	Mask         uint32
}

// ActiveLanes returns the number of enabled lanes.
func (in *instr) ActiveLanes() int { return bits.OnesCount32(in.Mask) }

// Warp is one resident warp context.
type Warp struct {
	// seq is the core-unique warp number, the final age tie-breaker.
	seq uint64
	// cta is the owning resident CTA.
	cta *CTA

	// sched is the owning issue slot and slot the warp's index in its age
	// order; the scheduler's sets and stall cache are indexed by it.
	sched *scheduler
	slot  int

	// at is the warp's position in its kernel's program (cta.Spec.Program,
	// which every warp of the kernel shares) and carries the warp's CTA and
	// index. While cur is a global op with active lanes, at still points at
	// it (see fetch).
	at isa.Cursor
	// cur is the fetched, unissued instruction while curValid holds.
	cur      instr
	curValid bool

	finished bool

	// readyAt[r] is the cycle register r's pending write completes;
	// 0 means no write pending. Register 0 is hardwired ready. It holds
	// the program's Regs() entries, cut from the CTA's scoreboard slab, so
	// every register the program names has one.
	readyAt []uint64
}

// ready returns the cycle register r's pending write completes (0: none).
func (w *Warp) ready(r isa.Reg) uint64 { return w.readyAt[r] }

// setReady records that register r's pending write completes at cycle at.
func (w *Warp) setReady(r isa.Reg, at uint64) { w.readyAt[r] = at }

// fetch ensures cur holds the next unissued instruction, decoded from the
// SM's one fetch buffer (u.fetchBuf). A global op with active lanes is only
// peeked at: at stays on it until the LDST unit fetches it again for its
// lanes (lanes), so the warp never keeps them. Returns false when the
// program is exhausted (treated as an implicit exit).
func (w *Warp) fetch(u *ldstUnit) bool {
	if w.curValid {
		return true
	}
	buf, from := &u.fetchBuf, w.at
	if !w.cta.Spec.Program.Next(&w.at, buf) {
		return false
	}
	w.cur = instr{Op: buf.Op, Dst: buf.Dst, Src: buf.Src, BankConflict: buf.BankConflict, Mask: buf.Mask}
	w.curValid = true
	if buf.Op.IsGlobal() && buf.Mask != 0 {
		w.at = from
	}
	return true
}

// lanes fetches cur, an issued global op with active lanes, again into the
// fetch buffer and steps at past it. Programs are deterministic, so that
// gives the instruction fetch decoded cur from; an affine op's lanes are
// then one formula.
func (w *Warp) lanes(u *ldstUnit) *isa.WarpInstr {
	w.cta.Spec.Program.Next(&w.at, &u.fetchBuf)
	return &u.fetchBuf
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

	warps []*Warp
	// regs is the scoreboard slab the warps' readyAt slices are cut from:
	// the largest Regs() among the warps' programs, per warp, kept with the
	// pooled context and cleared on placement.
	regs      []uint64
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

// Warps exposes the CTA's warp contexts (tests and probes).
func (c *CTA) Warps() []*Warp { return c.warps }
