package sm

import (
	"fmt"

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
	// across provably-quiet windows, with Tick/SyncTo replaying the skipped
	// cycles' counters through FastForward ("granule replay").
	onWake func(coreID int, at uint64)
	// syncedTo is the next cycle whose counters have not been accrued —
	// Stats reflects exactly the cycles in [0, syncedTo). Active cores keep
	// it at now+1 after every Tick; parked cores fall behind and catch up in
	// one FastForward when something next looks at them.
	syncedTo uint64
	// onCTADrained is invoked when a draining CTA is evicted — the
	// preemption counterpart of onCTADone, reported distinctly because the
	// CTA did not finish and must be re-dispatched.
	onCTADrained func(coreID int, cta *CTA)
	// draining counts resident CTAs in CTADraining. While nonzero, NextEvent
	// pins the event horizon to now: eviction is checked every Tick, so
	// fast-forward must not skip across a drain window.
	draining int

	// Stats accumulates the core counters; KernelIssued buckets issued
	// instructions by kernel index (sized by the GPU at construction).
	// The listed counters advance once per skipped-or-ticked cycle and are
	// replayed lazily through FastForward when the core is parked, so a
	// reader outside the core's own Tick must sync the core to the current
	// cycle first (gpulint wakesync polices this). The issue/retirement counters
	// (InstrIssued, ThreadInstr, CTAsCompleted, ...) are exact at all
	// times: a parked core provably cannot issue or retire.
	//
	//gpulint:lazy ActiveCycles,IssueStallCycles,StallScoreboard,StallLDSTFull,StallBarrier,StallDrain accrued by FastForward granule replay; stale while parked
	Stats         stats.Core
	KernelIssued  []uint64
	memLatencySum uint64
	memLoadsDone  uint64
	// issueWalks/issueServed count the scheduler-cycles pickOrReason resolved
	// by walking the warps vs. by reading a stall certificate. Host-side
	// accounting, kept out of Stats so it can never reach a Result.
	issueWalks, issueServed uint64
}

// New builds SM id attached to the shared memory system. numKernels sizes
// the per-kernel issue buckets.
func New(id int, cfg *Config, sys *mem.System, numKernels int, onCTADone func(int, *CTA)) *SM {
	s := &SM{
		id:               id,
		cfg:              cfg,
		memCfg:           sys.Config(),
		sys:              sys,
		schedulers:       make([]scheduler, cfg.NumSchedulers),
		onCTADone:        onCTADone,
		KernelIssued:     make([]uint64, numKernels),
		residentByKernel: make([]int, numKernels),
	}
	for i := range s.schedulers {
		s.schedulers[i].policy = cfg.WarpPolicy
		s.schedulers[i].activeSize = cfg.ActiveSetSize
	}
	s.l1 = mem.NewL1(s.memCfg, id, sys.Port(id))
	s.ldst = newLDSTUnit(s)
	return s
}

// ID returns the core index.
func (s *SM) ID() int { return s.id }

// SetDrainHandler registers the eviction callback invoked when a draining
// CTA has left the core (distinct from retirement). Must be set before the
// first Tick. Like onCTADone it runs inside the core's Tick, so
// implementations must only record the event and must not wake or mutate
// any core (the GPU commits both once every SM has ticked).
func (s *SM) SetDrainHandler(fn func(coreID int, cta *CTA)) { s.onCTADrained = fn }

// SetWakeHandler registers the activity-set notifier and arms lazy counter
// accrual (see the syncedTo field). Must be set before the first Tick and
// only by a driver that ticks the core contiguously or syncs it first — the
// GPU cycle loop. Unit tests that tick a bare SM leave it unset and keep the
// strict tick-every-cycle semantics.
func (s *SM) SetWakeHandler(fn func(coreID int, at uint64)) { s.onWake = fn }

// SyncTo accrues the counters for every unprocessed cycle in [syncedTo, t)
// in one granule replay. The caller certifies the window is quiet — the
// core was parked with a wake bound >= t, so no cycle in it could have
// issued, popped a response, or mutated state (FastForward panics if that
// certificate is wrong). Safe to call redundantly: a window the core has
// already processed is empty.
//
//gpulint:synced SyncTo is the accrual funnel itself: it advances the watermark rather than reading behind it
func (s *SM) SyncTo(t uint64) {
	if t > s.syncedTo {
		s.FastForward(s.syncedTo, t)
		s.syncedTo = t
	}
}

// SyncedTo exposes the accrual frontier (tests).
func (s *SM) SyncedTo() uint64 { return s.syncedTo }

// IssueCounts returns how many scheduler-cycles were resolved by a warp walk
// and how many were served from a stall certificate (gpu.EngineStats).
func (s *SM) IssueCounts() (walks, served uint64) { return s.issueWalks, s.issueServed }

// Draining returns the number of resident CTAs currently draining.
func (s *SM) Draining() int { return s.draining }

// L1Stats exposes the L1 hit/miss counters.
func (s *SM) L1Stats() *stats.Cache { return s.l1.CacheStats() }

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

// SetWarpPolicy switches the warp scheduler (takes effect immediately; used
// by experiments that compare policies, never mid-run).
func (s *SM) SetWarpPolicy(p Policy) {
	s.cfg.WarpPolicy = p
	for i := range s.schedulers {
		sched := &s.schedulers[i]
		sched.policy = p
		sched.active = sched.active[:0]
		sched.pending = sched.pending[:0]
		if p == PolicyTwoLevel {
			for _, w := range sched.warps {
				if len(sched.active) < sched.activeCap() {
					sched.active = append(sched.active, w)
				} else {
					sched.pending = append(sched.pending, w)
				}
			}
		}
		// Age keys are policy-dependent (GTO ages by arrival, BAWS by
		// block); refresh the cached oldest warp.
		sched.rebuildAge()
		sched.cert.until = 0
	}
}

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
	cta, warps := s.takeCTA()
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
	for i := 0; i < nw; i++ {
		w := warps[i]
		// Whole-struct reset: a recycled warp must not leak scoreboard or
		// stall state (readyAt in particular) into its next life.
		*w = Warp{
			seq:       s.warpSeq,
			cta:       cta,
			warpInCTA: i,
			prog:      spec.Program(ctaID, i),
		}
		s.warpSeq++
		s.leastLoadedScheduler().add(w)
	}
	s.ctas = append(s.ctas, cta)
	if kernelIdx >= 0 && kernelIdx < len(s.residentByKernel) {
		s.residentByKernel[kernelIdx]++
	}
	return cta
}

// takeCTA pops a pooled CTA context (or allocates a fresh one), returning
// the object and its reusable warp-pointer slice. AddCTA overwrites every
// field, so the pooled object carries no state forward.
func (s *SM) takeCTA() (*CTA, []*Warp) {
	n := len(s.ctaPool)
	if n == 0 {
		return new(CTA), nil
	}
	cta := s.ctaPool[n-1]
	s.ctaPool[n-1] = nil
	s.ctaPool = s.ctaPool[:n-1]
	return cta, cta.warps
}

// Recycle returns a retired or evicted CTA's context to the core's pool for
// reuse by a later AddCTA. The caller — the GPU's retirement or eviction
// commit, after every completion callback has run — certifies that nothing
// else still holds the pointer. A CTA whose trailing memory work is still in flight
// (memRefs > 0: a store queued or filling past the last warp's exit) is
// armed for deferred pooling instead; the LDST unit hands it over when the
// last reference drains, which is always a later cycle than the commit, so
// no commit-callback reader can observe the reuse. Warp programs are returned
// to their factory's pool here, where the warps provably can never fetch
// again.
func (s *SM) Recycle(cta *CTA) {
	if cta.memRefs > 0 {
		cta.recycleArmed = true
		return
	}
	s.poolCTA(cta)
}

// poolCTA releases the warps' programs and pushes the context. Split from
// Recycle so the LDST unit's deferred handoff shares the release path.
func (s *SM) poolCTA(cta *CTA) {
	if rec := cta.Spec.RecycleProgram; rec != nil {
		for _, w := range cta.warps {
			if w.prog != nil {
				rec(w.prog)
				w.prog = nil
			}
		}
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
// replays the skipped cycles' counters, so its Stats are current the moment
// it runs again.
//
// The GPU ticks its cores in ascending core index and skips only parked
// ones. A core with a pending send, a runnable warp or a draining CTA is
// never parked (NextEvent returns now for it), so what Tick exports — sends
// through the memory port, the retirement and eviction callbacks — reaches
// the shared machine in index order whatever the park/wake history was.
//
//gpulint:phasea the core replaying its own parked window: reads of its lazy counters below Tick are current by construction
func (s *SM) Tick(now uint64) {
	if s.onWake != nil && now > s.syncedTo {
		s.FastForward(s.syncedTo, now)
	}
	s.syncedTo = now + 1
	if len(s.ctas) > 0 || s.ldst.busy() {
		s.Stats.ActiveCycles++
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
	s.Stats.CTAsDrained++
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
		s.Stats.IssueStallCycles++
		switch reason {
		case skipScoreboard:
			s.Stats.StallScoreboard++
		case skipStructural:
			s.Stats.StallLDSTFull++
		case skipBarrier:
			s.Stats.StallBarrier++
		case skipDraining:
			s.Stats.StallDrain++
		}
		return
	}
	s.execute(sched, w, now)
}

// pickOrReason resolves one scheduler slot's verdict for one cycle: the
// issuing warp, or nil plus the stall attribution. It is the single verdict
// path shared by Tick and FastForward, so skipped cycles accrue exactly the
// counters executed cycles would. While the slot's stall
// certificate holds — the common case: most scheduler-cycles are failed
// picks repeating the cycle before — the verdict is read, not recomputed.
//
//gpulint:hotpath
func (s *SM) pickOrReason(sched *scheduler, now uint64) (*Warp, skipReason) {
	if s.certified(sched, now) {
		s.issueServed++
		return nil, sched.cert.reason
	}
	s.issueWalks++
	ready := func(w *Warp) (bool, skipReason) { return s.canIssue(sched, w, now) }
	sched.cert.until = 0 // a certificate only ever describes the latest pick
	w, reason := sched.pick(now, ready)
	sched.cert.ldstGen = s.ldst.freeGen
	return w, reason
}

// certified reports whether sched's stall certificate holds at cycle now.
//
//gpulint:hotpath
func (s *SM) certified(sched *scheduler, now uint64) bool {
	c := &sched.cert
	return now < c.until && (!c.waitsOnLDST || c.ldstGen == s.ldst.freeGen)
}

// canIssue evaluates every issue condition for w's current instruction.
func (s *SM) canIssue(sched *scheduler, w *Warp, now uint64) (bool, skipReason) {
	if w.finished {
		return false, skipFinished
	}
	if w.cta.state == CTADraining {
		// Drain protocol: no new instructions past the preemption point.
		return false, skipDraining
	}
	if w.atBarrier {
		return false, skipBarrier
	}
	if !w.fetch() {
		return false, skipFinished
	}
	if !w.operandsReady(now) {
		return false, skipScoreboard
	}
	wi := &w.cur
	switch {
	case wi.Op == isa.OpSfu && sched.sfuFreeAt > now:
		return false, skipStructural
	case wi.Op.IsMemory() && wi.Mask != 0 && !s.ldst.canAccept(wi.Op.WritesRegister()):
		return false, skipStructural
	}
	return true, skipNone
}

// execute issues w's current instruction.
func (s *SM) execute(sched *scheduler, w *Warp, now uint64) {
	wi := &w.cur
	w.curValid = false

	s.Stats.InstrIssued++
	s.Stats.ThreadInstr += uint64(wi.ActiveLanes())
	w.cta.Issued++
	if w.cta.KernelIdx < len(s.KernelIssued) {
		s.KernelIssued[w.cta.KernelIdx]++
	}

	switch wi.Op {
	case isa.OpNop, isa.OpBranch:
		// Issue-slot cost only.
	case isa.OpIAlu, isa.OpFAlu:
		if wi.Dst != 0 {
			w.readyAt[wi.Dst] = now + s.cfg.ALULatency
		}
	case isa.OpSfu:
		if wi.Dst != 0 {
			w.readyAt[wi.Dst] = now + s.cfg.SFULatency
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
				w.readyAt[wi.Dst] = now + 1
			}
			return
		}
		s.ldst.accept(w, wi, now)
	}
}

func (s *SM) arriveBarrier(w *Warp) {
	w.atBarrier = true
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
		if x.atBarrier {
			x.atBarrier = false
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
	s.Stats.CTAsCompleted++
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
		// the answer; one that issued, or whose certificate lapsed (two-level
		// demoting fetch groups never writes one), might act right now.
		if !s.certified(sched, now) {
			return now
		}
		next = min(next, sched.cert.until)
	}
	return next
}

// FastForward accrues the per-cycle counters Tick would have produced for
// the skipped window [from, to). The caller guarantees the machine is
// frozen across the window — nothing issues, no memory response arrives,
// no CTA is placed or retires — so the per-slot stall verdict is constant
// and one evaluation at `from` replicates every skipped cycle. A non-nil
// pick here would mean the window contained an issuable cycle, which the
// event horizon must never allow; that is a bug, not a recoverable state.
//
//gpulint:hotpath
func (s *SM) FastForward(from, to uint64) {
	if to <= from {
		return
	}
	k := to - from
	if len(s.ctas) > 0 || s.ldst.busy() {
		s.Stats.ActiveCycles += k
	}
	for i := range s.schedulers {
		sched := &s.schedulers[i]
		if len(sched.warps) == 0 {
			continue
		}
		w, reason := s.pickOrReason(sched, from)
		if w != nil {
			//gpulint:allow hotalloc unreachable-by-contract panic path; formatting cost is irrelevant when the simulator is already broken
			panic(fmt.Sprintf("sm %d: fast-forward across an issuable cycle at %d", s.id, from))
		}
		s.issueServed += k - 1 // one verdict stands for the whole window
		s.Stats.IssueStallCycles += k
		switch reason {
		case skipScoreboard:
			s.Stats.StallScoreboard += k
		case skipStructural:
			s.Stats.StallLDSTFull += k
		case skipBarrier:
			s.Stats.StallBarrier += k
		case skipDraining:
			// Unreachable: NextEvent pins the horizon while draining, so no
			// window containing a drain is ever skipped. Kept for symmetry.
			s.Stats.StallDrain += k
		}
	}
}
