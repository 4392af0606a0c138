package sm

import (
	"fmt"
	"slices"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
	"gpusched/internal/mem"
	"gpusched/internal/stats"
)

// SM is one streaming multiprocessor. The GPU front-end places CTAs on it
// (subject to the resource limits it enforces), ticks it once per cycle, and
// receives CTA-completion callbacks that drive the CTA scheduling policies.
type SM struct {
	id     int
	cfg    *Config
	memCfg *mem.Config

	l1   *mem.L1
	ldst *ldstUnit
	sys  *mem.System

	schedulers []scheduler
	ctas       []*CTA
	usage      kernel.Usage
	warpSeq    uint64
	// ctaPool recycles retired CTA contexts (the CTA, its warps slice, and
	// the Warp objects) so steady-state placement allocates nothing. Entries
	// are pushed by Recycle — or by the LDST unit once a recycle-armed CTA's
	// trailing memory work drains — and popped by AddCTA. Core-private, like
	// everything else on the SM.
	ctaPool []*CTA
	// residentByKernel counts resident CTAs per kernel index, so the CTA
	// dispatchers' per-cycle ResidentOf probes stop scanning ctas.
	residentByKernel []int

	// onCTADone is invoked when a resident CTA retires.
	onCTADone func(coreID int, cta *CTA)
	// onWake, when set, is notified whenever an external event (a CTA
	// placement) makes a possibly-parked core runnable at a cycle. Setting it
	// also arms lazy counter accrual: the core may then be left unticked
	// across provably-quiet windows, whose counters SyncTo stores when the
	// core is read, runs again or is mutated.
	onWake func(coreID int, at uint64)
	// syncedTo is the next cycle whose counters have not been stored —
	// counters holds exactly the cycles in [0, syncedTo). Active cores keep
	// it at now+1 after every Tick; parked cores fall behind, and a read at t
	// settles the window [syncedTo, t) (SyncTo).
	syncedTo uint64
	// onCTADrained is invoked when a draining CTA is evicted — the
	// preemption counterpart of onCTADone, reported distinctly because the
	// CTA did not finish and must be re-dispatched.
	onCTADrained func(coreID int, cta *CTA)
	// draining counts resident CTAs in CTADraining. While nonzero, NextEvent
	// pins the event horizon to now: eviction is checked every Tick, so
	// fast-forward must not skip across a drain window.
	draining int

	// counters accumulates the core counters through syncedTo; KernelIssued
	// buckets issued instructions by kernel index (sized by the GPU at
	// construction). ActiveCycles and the stall counters advance once per
	// cycle and lag behind while the core is parked, so counters is
	// unexported: a reader outside the core must pass the time it reads at
	// (Counters), which settles the parked window. The issue/retirement
	// counters (InstrIssued, ThreadInstr, CTAsCompleted, ...) are exact at all
	// times: a parked core provably cannot issue or retire.
	counters      stats.Core
	KernelIssued  []uint64
	memLatencySum uint64
	memLoadsDone  uint64
	// issueWalks/issueServed count the scheduler-cycles pickOrReason resolved
	// by walking the warps vs. by reading a stall certificate (the schedulers
	// count the readiness evaluations the walks made). Host-side accounting,
	// kept out of counters so it can never reach a Result.
	issueWalks, issueServed uint64
}

// New builds SM id attached to the shared memory system. numKernels sizes
// the per-kernel issue buckets.
func New(id int, cfg *Config, sys *mem.System, numKernels int, onCTADone func(int, *CTA)) *SM {
	return Renew(nil, id, cfg, sys, numKernels, onCTADone)
}

// Renew is New built in prev's arrays (prev nil: new ones): its L1, its LDST
// unit's rings and pending-load table, its schedulers' slot arrays, and its
// CTA and warp contexts, which all go to the new core's pool. prev must
// belong to a machine whose run is over (mem.RenewSystem), and nothing may
// use it afterwards. The handlers must be set again.
func Renew(prev *SM, id int, cfg *Config, sys *mem.System, numKernels int, onCTADone func(int, *CTA)) *SM {
	s := prev
	if s == nil {
		s = new(SM)
	}
	var pool []*CTA
	if prev != nil {
		pool = s.reclaimCTAs()
	}
	memCfg := sys.Config()
	*s = SM{
		id:               id,
		cfg:              cfg,
		memCfg:           memCfg,
		sys:              sys,
		l1:               mem.RenewL1(s.l1, memCfg, id, sys.Port(id)),
		ldst:             s.ldst,
		schedulers:       slices.Grow(s.schedulers[:0], cfg.NumSchedulers)[:cfg.NumSchedulers],
		ctaPool:          pool,
		onCTADone:        onCTADone,
		KernelIssued:     reuse(s.KernelIssued, numKernels),
		residentByKernel: reuse(s.residentByKernel, numKernels),
	}
	s.ldst = renewLDSTUnit(s.ldst, s)
	for i := range s.schedulers {
		s.schedulers[i].renew(cfg, s.ldst)
	}
	return s
}

// reclaimCTAs returns every CTA context the finished run still holds, for
// the renewed core's pool: the pooled ones, the ones resident when the run
// stopped (cut by MaxCycles or cancellation), and the retired ones armed for
// a pooling their trailing memory work would have triggered.
func (s *SM) reclaimCTAs() []*CTA {
	s.ctaPool = append(s.ctaPool, s.ctas...)
	armed := func(w *Warp) {
		if cta := w.cta; cta.recycleArmed {
			cta.recycleArmed = false
			s.ctaPool = append(s.ctaPool, cta)
		}
	}
	u := s.ldst
	for i := 0; i < u.qLen; i++ {
		armed(u.queue[ring(u.qHead, i, u.cap)].warp)
	}
	for i := range u.table {
		if u.table[i].inUse {
			armed(u.table[i].warp)
		}
	}
	return s.ctaPool
}

// ID returns the core index.
func (s *SM) ID() int { return s.id }

// SetDrainHandler registers the eviction callback invoked when a draining
// CTA has left the core (distinct from retirement). Must be set before the
// first Tick. Like onCTADone it runs inside the core's Tick, so
// implementations must only record the event and must not wake or mutate
// any core (the GPU commits both once every SM has ticked).
func (s *SM) SetDrainHandler(fn func(coreID int, cta *CTA)) { s.onCTADrained = fn }

// SetWakeHandler registers the GPU's wake notifier and arms lazy counter
// accrual (see the syncedTo field). Must be set before the first Tick and
// only by a driver that ticks the core contiguously or syncs it first — the
// GPU cycle loop. Unit tests that tick a bare SM leave it unset and keep the
// strict tick-every-cycle semantics.
func (s *SM) SetWakeHandler(fn func(coreID int, at uint64)) { s.onWake = fn }

// SyncTo stores the counters of the parked window [syncedTo, t) and advances
// the watermark to t (a t at or before syncedTo is a no-op). It is the only
// code that charges a window, and every read settles through it. The GPU
// calls it before mutating a parked core, while the window is still provably
// quiet, and Tick when the core runs again.
//
// A parked core holds a stall certificate on every scheduler with warps —
// otherwise NextEvent would have kept it active — so each window cycle
// repeats the certified reason, a scheduler-cycle served off the certificate,
// plus an ActiveCycle if the core holds work and a StallLDSTFull if the L1
// refused its head (L1.Waiting; the L1 settles its own side). A draining core
// is never parked, so StallDrain never accrues here. A scheduler with warps
// whose certificate does not cover the window is a bug the event horizon must
// never allow, not a recoverable state.
func (s *SM) SyncTo(t uint64) {
	if t <= s.syncedTo {
		return
	}
	k := t - s.syncedTo
	if len(s.ctas) > 0 || s.ldst.busy() {
		s.counters.ActiveCycles += k
	}
	if s.l1.Waiting() {
		s.counters.StallLDSTFull += k
	}
	for i := range s.schedulers {
		sched := &s.schedulers[i]
		if len(sched.warps) == 0 {
			continue
		}
		if !s.certified(sched, t-1) {
			panic(fmt.Sprintf("sm %d: counters read across an uncertified parked window [%d, %d)", s.id, s.syncedTo, t))
		}
		chargeStall(&s.counters, sched.cert.reason, k)
		s.issueServed += k
	}
	s.syncedTo = t
}

// Counters returns the core's counters through cycle t (exclusive), settling
// the parked window up to t first (SyncTo). The core must have run the
// cycles before t, and not t.
func (s *SM) Counters(t uint64) stats.Core {
	s.SyncTo(t)
	return s.counters
}

// InstrIssued returns the warp instructions issued so far — exact at all
// times, so reading it needs no time.
func (s *SM) InstrIssued() uint64 { return s.counters.InstrIssued }

// IssueCounts returns how many scheduler-cycles through cycle t (exclusive)
// were resolved by a warp walk and how many were served from a stall
// certificate, and how many warps the walks evaluated for readiness
// (gpu.EngineStats). It settles the parked window first, whose every cycle
// is served.
func (s *SM) IssueCounts(t uint64) (walks, served, evals uint64) {
	s.SyncTo(t)
	for i := range s.schedulers {
		evals += s.schedulers[i].evals
	}
	return s.issueWalks, s.issueServed, evals
}

// Draining returns the number of resident CTAs currently draining.
func (s *SM) Draining() int { return s.draining }

// L1Stats returns the L1 counters through cycle t (exclusive), settled like
// Counters: a head the L1 refused is charged one attempt per cycle it
// skipped (mem.L1.Stats).
func (s *SM) L1Stats(t uint64) stats.Cache { return s.l1.Stats(t) }

// AvgMemLatency returns the mean cycles from load issue to last transaction
// completion on this core.
func (s *SM) AvgMemLatency() float64 {
	if s.memLoadsDone == 0 {
		return 0
	}
	return float64(s.memLatencySum) / float64(s.memLoadsDone)
}

// MemLatencyRaw returns the load-latency accumulator and its count, for
// correctly weighted cross-core means.
func (s *SM) MemLatencyRaw() (sum, n uint64) { return s.memLatencySum, s.memLoadsDone }

// Usage returns the current resource footprint of resident CTAs.
func (s *SM) Usage() kernel.Usage { return s.usage }

// Limits returns the occupancy limits the core enforces.
func (s *SM) Limits() kernel.CoreLimits { return s.cfg.Limits }

// ResidentCTAs returns the number of CTAs currently on the core.
func (s *SM) ResidentCTAs() int { return len(s.ctas) }

// ResidentOf returns the number of resident CTAs belonging to kernelIdx.
// It is O(1): the per-kernel counters are maintained by AddCTA/completeCTA,
// because every CTA dispatcher probes this on its per-cycle placement scan.
func (s *SM) ResidentOf(kernelIdx int) int {
	if kernelIdx < 0 || kernelIdx >= len(s.residentByKernel) {
		return 0
	}
	return s.residentByKernel[kernelIdx]
}

// CTAs exposes the resident CTA list (probes and tests).
func (s *SM) CTAs() []*CTA { return s.ctas }

// CanAccept reports whether one more CTA of spec fits.
func (s *SM) CanAccept(spec *kernel.Spec) bool {
	return s.usage.Add(spec, 1).Fits(s.cfg.Limits)
}

// AddCTA places a CTA on the core. blockKey/indexInBlock carry the BCS gang
// identity (pass now and 0 for non-gang dispatch). It panics if resources
// are exhausted: the CTA scheduler must check CanAccept first.
func (s *SM) AddCTA(spec *kernel.Spec, kernelIdx, ctaID int, addrBase uint64, blockKey uint64, indexInBlock int, now uint64) *CTA {
	if !s.CanAccept(spec) {
		panic(fmt.Sprintf("sm %d: AddCTA without capacity", s.id))
	}
	if s.onWake != nil {
		// A placement mutates scheduler state, so any parked window must be
		// accrued against the pre-placement verdicts first. The notifier owns
		// the sync: it knows whether the core can still tick this cycle
		// (dispatcher placement, before the SMs tick) or only the next one
		// (placement from a commit callback), and settles the counters up to
		// exactly that boundary before this mutation lands.
		s.onWake(s.id, now)
	}
	s.usage = s.usage.Add(spec, 1)
	cta, warps, regs := s.takeCTA()
	*cta = CTA{
		Spec:         spec,
		KernelIdx:    kernelIdx,
		ID:           ctaID,
		AddrBase:     addrBase,
		Arrival:      now,
		BlockKey:     blockKey,
		IndexInBlock: indexInBlock,
	}
	nw := spec.WarpsPerCTA()
	if cap(warps) >= nw {
		warps = warps[:nw]
	} else {
		grown := make([]*Warp, nw)
		copy(grown, warps[:cap(warps)])
		warps = grown
	}
	cta.warps = warps
	cta.liveWarps = nw
	// Fill the slots a recycled context doesn't cover from one slab: warm-up
	// is per-CTA, not per-warp, and the pointers stay live in the pool.
	missing := 0
	for i := 0; i < nw; i++ {
		if warps[i] == nil {
			missing++
		}
	}
	if missing > 0 {
		slab := make([]Warp, missing)
		j := 0
		for i := 0; i < nw; i++ {
			if warps[i] == nil {
				warps[i] = &slab[j]
				j++
			}
		}
	}
	// Whole-struct reset: a recycled warp must not leak stall state into
	// its next life.
	for i := 0; i < nw; i++ {
		*warps[i] = Warp{seq: s.warpSeq, cta: cta, at: isa.Cursor{CTA: ctaID, Warp: i}}
		s.warpSeq++
	}
	// Each warp's scoreboard holds the registers the program names, cut
	// from the context's slab. Clearing the slab is the scoreboard reset.
	perWarp := spec.Program.Regs()
	if n := nw * perWarp; cap(regs) >= n {
		regs = regs[:n]
		clear(regs)
	} else {
		regs = make([]uint64, n)
	}
	cta.regs = regs
	for i := 0; i < nw; i++ {
		warps[i].readyAt = regs[i*perWarp : (i+1)*perWarp : (i+1)*perWarp]
		s.leastLoadedScheduler().add(warps[i])
	}
	s.ctas = append(s.ctas, cta)
	if kernelIdx >= 0 && kernelIdx < len(s.residentByKernel) {
		s.residentByKernel[kernelIdx]++
	}
	return cta
}

// takeCTA pops a pooled CTA context (or allocates a fresh one), returning
// the object, its reusable warp-pointer slice and its scoreboard slab.
// AddCTA overwrites every field, so the pooled object carries no state
// forward.
func (s *SM) takeCTA() (*CTA, []*Warp, []uint64) {
	n := len(s.ctaPool)
	if n == 0 {
		return new(CTA), nil, nil
	}
	cta := s.ctaPool[n-1]
	s.ctaPool[n-1] = nil
	s.ctaPool = s.ctaPool[:n-1]
	return cta, cta.warps, cta.regs
}

// Recycle returns a retired or evicted CTA's context to the core's pool for
// reuse by a later AddCTA. The caller — the GPU's retirement or eviction
// commit, after every completion callback has run — certifies that nothing
// else still holds the pointer. A CTA whose trailing memory work is still in flight
// (memRefs > 0: a store queued or filling past the last warp's exit) is
// armed for deferred pooling instead; the LDST unit hands it over when the
// last reference drains, which is always a later cycle than the commit, so
// no commit-callback reader can observe the reuse.
func (s *SM) Recycle(cta *CTA) {
	if cta.memRefs > 0 {
		cta.recycleArmed = true
		return
	}
	s.ctaPool = append(s.ctaPool, cta)
}

func (s *SM) leastLoadedScheduler() *scheduler {
	best := &s.schedulers[0]
	for i := 1; i < len(s.schedulers); i++ {
		if len(s.schedulers[i].warps) < len(best.warps) {
			best = &s.schedulers[i]
		}
	}
	return best
}

// Tick advances the core one cycle: drain memory responses, advance the
// LDST pipeline, then let each scheduler issue one instruction. Under lazy
// accrual (SetWakeHandler armed) a core waking from a parked window first
// stores the skipped cycles' counters (SyncTo), so they are current the
// moment it runs again.
//
// The GPU ticks its cores in ascending core index and skips only parked
// ones. A core with a send to make, a runnable warp or a draining CTA is
// never parked (NextEvent returns now for it). A core whose send the request
// queue refused may park, but it would be refused again until its partition
// pops, and the pop wakes the lowest-index core waiting there — the one core
// the freed slot can admit. So what Tick exports — sends through the memory
// port, the retirement and eviction callbacks — reaches the shared machine in
// index order whatever the park/wake history was.
func (s *SM) Tick(now uint64) {
	if s.onWake != nil && now > s.syncedTo {
		s.SyncTo(now) // not inlined: keep the common no-window case a compare
	}
	s.syncedTo = now + 1
	if len(s.ctas) > 0 || s.ldst.busy() {
		s.counters.ActiveCycles++
	}
	for {
		resp, ok := s.sys.PopResponse(s.id, now)
		if !ok {
			break
		}
		s.ldst.onResponse(resp, now)
	}
	s.ldst.tick(now)
	for i := range s.schedulers {
		s.issueOne(&s.schedulers[i], now)
	}
	if s.draining > 0 {
		s.evictDrained(now)
	}
}

// DrainCTA begins preemption of a resident CTA: it moves the CTA to
// CTADraining, which suppresses all further instruction issue by its warps
// (including OpExit — a marked CTA can only leave the core by eviction).
// The CTA is evicted by a later Tick once its in-flight memory work
// completes. Returns false when cta is not resident in the running state —
// in particular when a natural completion raced the drain request and the
// CTA already retired.
func (s *SM) DrainCTA(cta *CTA) bool {
	if cta == nil || cta.state != CTARunning {
		return false
	}
	resident := false
	for _, c := range s.ctas {
		if c == cta {
			resident = true
			break
		}
	}
	if !resident {
		return false
	}
	cta.state = CTADraining
	s.draining++
	for _, w := range cta.warps {
		if !w.finished {
			w.sched.drain(w)
		}
	}
	for i := range s.schedulers {
		s.schedulers[i].cert.until = 0 // the CTA's warps stop issuing everywhere
	}
	return true
}

// evictDrained evicts every draining CTA whose memory work has completed.
// It runs at the end of Tick, so the response drain earlier in the same
// cycle may have retired the final pending load.
func (s *SM) evictDrained(now uint64) {
	for i := 0; i < len(s.ctas); {
		cta := s.ctas[i]
		if cta.state == CTADraining && cta.memRefs == 0 {
			s.evictCTA(cta, now)
			continue // eviction removed index i; the next CTA shifted in
		}
		i++
	}
}

// evictCTA removes a fully drained CTA from the core: completeCTA's resource
// accounting (scheduler slots, usage, per-kernel residency) with the drained
// CTA reported through the drain handler instead of the retirement one.
func (s *SM) evictCTA(cta *CTA, now uint64) {
	for _, w := range cta.warps {
		if !w.finished {
			w.sched.remove(w)
			w.finished = true
		}
	}
	for i, c := range s.ctas {
		if c == cta {
			copy(s.ctas[i:], s.ctas[i+1:])
			s.ctas = s.ctas[:len(s.ctas)-1]
			break
		}
	}
	s.usage = s.usage.Add(cta.Spec, -1)
	if cta.KernelIdx >= 0 && cta.KernelIdx < len(s.residentByKernel) {
		s.residentByKernel[cta.KernelIdx]--
	}
	s.draining--
	cta.state = CTAEvicted
	s.counters.CTAsDrained++
	if s.onCTADrained != nil {
		s.onCTADrained(s.id, cta)
	}
}

// issueOne runs one scheduler slot for one cycle.
func (s *SM) issueOne(sched *scheduler, now uint64) {
	if len(sched.warps) == 0 {
		return
	}
	w, reason := s.pickOrReason(sched, now)
	if w == nil {
		chargeStall(&s.counters, reason, 1)
		return
	}
	s.execute(sched, w, now)
}

// chargeStall charges k scheduler-cycles stalled for reason to c: one from
// issueOne, a parked window's worth from SyncTo, so skipped cycles accrue
// exactly the counters executed cycles would.
func chargeStall(c *stats.Core, reason skipReason, k uint64) {
	c.IssueStallCycles += k
	switch reason {
	case skipScoreboard:
		c.StallScoreboard += k
	case skipStructural:
		c.StallLDSTFull += k
	case skipBarrier:
		c.StallBarrier += k
	case skipDraining:
		c.StallDrain += k
	}
}

// pickOrReason resolves one scheduler slot's verdict for one cycle: the
// issuing warp, or nil plus the stall attribution. While the slot's stall
// certificate holds — the common case: most scheduler-cycles are failed
// picks repeating the cycle before — the verdict is read, not recomputed.
func (s *SM) pickOrReason(sched *scheduler, now uint64) (*Warp, skipReason) {
	if s.certified(sched, now) {
		s.issueServed++
		return nil, sched.cert.reason
	}
	s.issueWalks++
	sched.cert.until = 0 // a certificate only ever describes the latest pick
	w, reason := sched.pick(now)
	sched.cert.ldstGen = s.ldst.freeGen
	return w, reason
}

// certified reports whether sched's stall certificate holds at cycle now.
func (s *SM) certified(sched *scheduler, now uint64) bool {
	c := &sched.cert
	return now < c.until && (!c.waitsOnLDST || c.ldstGen == s.ldst.freeGen)
}

// execute issues w's current instruction.
func (s *SM) execute(sched *scheduler, w *Warp, now uint64) {
	wi := &w.cur
	w.curValid = false
	sched.issued(w)

	s.counters.InstrIssued++
	s.counters.ThreadInstr += uint64(wi.ActiveLanes())
	w.cta.Issued++
	if w.cta.KernelIdx < len(s.KernelIssued) {
		s.KernelIssued[w.cta.KernelIdx]++
	}

	switch wi.Op {
	case isa.OpNop, isa.OpBranch:
		// Issue-slot cost only.
	case isa.OpIAlu, isa.OpFAlu:
		if wi.Dst != 0 {
			w.setReady(wi.Dst, now+s.cfg.ALULatency)
		}
	case isa.OpSfu:
		if wi.Dst != 0 {
			w.setReady(wi.Dst, now+s.cfg.SFULatency)
		}
		sched.sfuFreeAt = now + s.cfg.SFUInterval
	case isa.OpBarrier:
		s.arriveBarrier(w)
	case isa.OpExit:
		s.exitWarp(sched, w, now)
	default:
		if !wi.Op.IsMemory() {
			panic(fmt.Sprintf("sm: unhandled op %v", wi.Op))
		}
		if wi.ActiveLanes() == 0 {
			// Fully predicated off: completes like a nop.
			if wi.Dst != 0 && wi.Op.WritesRegister() {
				w.setReady(wi.Dst, now+1)
			}
			return
		}
		s.ldst.accept(w, wi, now)
	}
}

func (s *SM) arriveBarrier(w *Warp) {
	w.sched.barrier |= bit(w.slot)
	cta := w.cta
	cta.barCount++
	if cta.barCount >= cta.liveWarps {
		releaseBarrier(cta)
	}
}

// releaseBarrier frees every warp of cta waiting at the barrier and clears
// their schedulers' stall certificates (the CTA's warps are spread across
// schedulers).
func releaseBarrier(cta *CTA) {
	for _, x := range cta.warps {
		if b := bit(x.slot); !x.finished && x.sched.barrier&b != 0 {
			x.sched.barrier &^= b
			x.sched.cert.until = 0
		}
	}
	cta.barCount = 0
}

func (s *SM) exitWarp(sched *scheduler, w *Warp, now uint64) {
	w.finished = true
	sched.remove(w)
	cta := w.cta
	cta.liveWarps--
	if cta.liveWarps > 0 {
		// A malformed kernel could leave peers waiting at a barrier this
		// warp will never reach; release them rather than deadlock.
		if cta.barCount >= cta.liveWarps {
			releaseBarrier(cta)
		}
		return
	}
	s.completeCTA(cta, now)
}

func (s *SM) completeCTA(cta *CTA, now uint64) {
	for i, c := range s.ctas {
		if c == cta {
			copy(s.ctas[i:], s.ctas[i+1:])
			s.ctas = s.ctas[:len(s.ctas)-1]
			break
		}
	}
	// Usage is additive per CTA, so retiring one subtracts its footprint —
	// no rebuild over the survivors.
	s.usage = s.usage.Add(cta.Spec, -1)
	if cta.KernelIdx >= 0 && cta.KernelIdx < len(s.residentByKernel) {
		s.residentByKernel[cta.KernelIdx]--
	}
	s.counters.CTAsCompleted++
	if s.onCTADone != nil {
		s.onCTADone(s.id, cta)
	}
}

// Idle reports whether the core has no resident CTAs and no in-flight
// memory work.
func (s *SM) Idle() bool {
	return len(s.ctas) == 0 && !s.ldst.busy()
}

// NeverEvent is the NextEvent bound meaning "only an external event — a
// memory response or a CTA placement — can change what Tick does".
const NeverEvent = ^uint64(0)

// NextEvent returns the earliest cycle >= now at which the core can make
// progress on its own: a ripe LDST event, a scoreboard stall expiring, or
// an SFU pipe freeing. The bound is conservative — waking early is safe
// (Tick runs and finds nothing), waking late would skip cycles where state
// changes, which the bit-identical gate forbids. It reads the schedulers'
// stall certificates and evaluates no warp.
func (s *SM) NextEvent(now uint64) uint64 {
	if s.Idle() {
		return NeverEvent
	}
	if s.draining > 0 {
		// A drain is in progress: eviction readiness (memRefs == 0) is
		// re-checked every Tick, and a drained-CTA commit changes dispatch
		// state, so no cycle in a drain window may be skipped. Drains last
		// one memory round trip at most — the conservative bound is cheap.
		return now
	}
	next := s.ldst.nextEvent(now)
	if next <= now {
		return now
	}
	for i := range s.schedulers {
		sched := &s.schedulers[i]
		if len(sched.warps) == 0 {
			continue
		}
		// A slot that failed its last pick holds a certificate, whose bound is
		// the answer; one that issued, whose certificate lapsed, or whose
		// failed two-level pick swapped its fetch groups (which writes none)
		// might act right now.
		if !s.certified(sched, now) {
			return now
		}
		next = min(next, sched.cert.until)
	}
	return next
}

// reuse returns s resized to n zero elements, in s's backing array when that
// is large enough (mem.RenewSystem's helper of the same name).
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
