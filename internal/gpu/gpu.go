// Package gpu wires the simulator together: an array of SMs, the shared
// memory system, a launch table of kernels, and a CTA-scheduling Dispatcher
// from internal/core. It owns the cycle loop and produces the Result record
// the experiment harness consumes.
package gpu

import (
	"context"
	"fmt"

	"gpusched/internal/core"
	"gpusched/internal/kernel"
	"gpusched/internal/mem"
	"gpusched/internal/sm"
	"gpusched/internal/stats"
)

// Config is the whole-GPU configuration.
type Config struct {
	// NumCores is the SM count.
	NumCores int
	// Core is the per-SM configuration (copied per SM).
	Core sm.Config
	// Mem is the shared memory-system configuration.
	Mem mem.Config
	// MaxCycles aborts runaway simulations; Result.TimedOut is set.
	// Zero means DefaultMaxCycles.
	MaxCycles uint64
	// DisableFastForward forces the reference cycle-by-cycle loop, never
	// skipping provably-idle stretches. Results are bit-identical either
	// way — the flag exists so tests can prove exactly that, and so
	// suspected fast-forward bugs can be bisected against the reference.
	DisableFastForward bool
	// Granule is the minimum provably-quiet window, in cycles, an SM must
	// have ahead of it before it is parked in the activity set
	// (0 means DefaultGranule). A parked SM is skipped without being
	// visited until its wake cycle; the skipped cycles' ActiveCycles and
	// stall counters are replayed in one FastForward when it next runs.
	// Execution-only: parking is semantically inert, so results are
	// byte-identical for every granule (the golden determinism tests sweep
	// it) and it never enters a cache key.
	Granule uint64
	// BatchWindow caps the quiet-window cycle batch, in cycles: when no SM
	// can run or receive a response for the next k cycles, the loop runs k
	// memory-system ticks in one call instead of k loop iterations. The
	// effective window is additionally bounded by the crossbar latency (a
	// response delivered inside the window cannot become poppable before the
	// window ends, so no SM interaction is ever skipped). 0 means
	// DefaultBatchWindow; 1 disables batching. Execution-only: results are
	// byte-identical for every value (the golden determinism tests sweep it),
	// so it never enters a cache key.
	BatchWindow uint64
}

// DefaultMaxCycles is the runaway-simulation cap applied when
// Config.MaxCycles is zero — the single definition every layer shares.
const DefaultMaxCycles uint64 = 20_000_000

// DefaultGranule is the parking threshold applied when Config.Granule is
// zero: an SM leaves the activity set only when it can prove at least this
// many quiet cycles ahead. Small enough that short stalls still park, large
// enough that an SM bouncing on 1–2 cycle hazards stays active instead of
// parking and waking every other cycle.
const DefaultGranule uint64 = 4

// resolveGranule maps Config.Granule to the effective parking threshold.
func (c *Config) resolveGranule() uint64 {
	if c.Granule == 0 {
		return DefaultGranule
	}
	return c.Granule
}

// DefaultBatchWindow is the quiet-window batch cap applied when
// Config.BatchWindow is zero. It only bounds the merge buffers: the
// effective window is almost always the crossbar latency (the SM↔memsys
// interaction bound), which is far below it.
const DefaultBatchWindow uint64 = 64

// resolveBatchWindow maps Config.BatchWindow to the effective batch cap:
// the configured (or default) cap, never more than the crossbar latency —
// a response delivered at cycle c becomes poppable at c+XbarLatency, so a
// window bounded by the latency provably contains no SM-visible event.
func (c *Config) resolveBatchWindow() uint64 {
	w := c.BatchWindow
	if w == 0 {
		w = DefaultBatchWindow
	}
	lat := c.Mem.XbarLatency
	if lat < 1 {
		lat = 1
	}
	if w > lat {
		w = lat
	}
	return w
}

// DefaultConfig returns the Fermi-class (GTX480 ballpark) GPU used by the
// paper-reproduction experiments: 15 SMs, 2 schedulers each, 6 memory
// partitions.
func DefaultConfig() Config {
	return Config{
		NumCores:  15,
		Core:      sm.DefaultConfig(),
		Mem:       mem.DefaultConfig(),
		MaxCycles: DefaultMaxCycles,
	}
}

// addrSpaceStride separates kernel global address spaces: lane addresses
// are 32-bit offsets, so 8 GiB spacing guarantees no aliasing while keeping
// cache index bits undisturbed.
const addrSpaceStride = uint64(1) << 33

// Result summarizes one simulation.
type Result struct {
	// Cycles is the total simulated time (launch of first kernel to
	// retirement of the last CTA).
	Cycles uint64
	// TimedOut is set when MaxCycles aborted the run.
	TimedOut bool
	// InstrIssued and ThreadInstr aggregate issue counts over all cores.
	InstrIssued uint64
	ThreadInstr uint64
	// IPC is InstrIssued / Cycles.
	IPC float64
	// Core sums the per-SM pipeline counters.
	Core stats.Core
	// L1 sums the per-SM L1 counters; L2 and DRAM aggregate the shared
	// hierarchy.
	L1   stats.Cache
	L2   stats.Cache
	DRAM stats.DRAM
	// AvgMemLatency is the mean load round-trip in cycles (issue to last
	// transaction), averaged over cores weighted by load count.
	AvgMemLatency float64
	// Kernels holds per-kernel makespans and issue counts, launch order.
	Kernels []stats.Kernel
}

// EngineStats counts how the cycle loop spent a run: which mechanism covered
// each simulated cycle, and how often the loop paid for a dispatcher poll —
// pure host overhead whenever the dispatcher cannot act. It describes the
// execution, not the simulated machine: the numbers move with Granule,
// BatchWindow and DisableFastForward while Result does not, so it is never
// part of Result and never enters a cache key.
type EngineStats struct {
	// CyclesTicked counts cycles that ran the full loop body (the SM ticks,
	// the commits, the memory tick). CyclesFastForwarded counts cycles the event
	// horizon jumped over, CyclesBatched cycles covered by a quiet-window
	// memory batch. The three sum to Result.Cycles.
	CyclesTicked        uint64
	CyclesFastForwarded uint64
	CyclesBatched       uint64
	// DispatcherTicks counts dispatcher.Tick calls; DispatcherSkips counts
	// loop iterations where the quiescence certificate proved Tick a no-op
	// and it was not called. One of the two advances per loop iteration (a
	// ticked cycle or the first cycle of a batched window).
	DispatcherTicks uint64
	DispatcherSkips uint64
	// IssueWalks counts scheduler-cycles (one warp scheduler with resident
	// warps, one cycle) whose verdict took a walk over the warps, IssueServed
	// those read from a stall certificate (sm.SM.IssueCounts, summed). Together
	// they are Result.Core.InstrIssued + IssueStallCycles.
	IssueWalks  uint64
	IssueServed uint64
}

// GPU is one simulated device with a fixed launch table.
type GPU struct {
	cfg        Config
	cores      []*sm.SM
	memsys     *mem.System
	dispatcher core.Dispatcher
	kernels    []*core.KernelState
	now        uint64
	doneCount  int
	// observer, when set, sees every CTA retirement (experiment probes).
	observer func(coreID int, cta *sm.CTA, now uint64)
	coreCfgs []sm.Config
	// epochFn, when set, runs every epochEvery cycles (tracing hooks).
	epochFn    func(now uint64)
	epochEvery uint64
	// ctaEvent records that a CTA retired during the current cycle; with
	// the placement and issue counters it decides whether the cycle was
	// idle and the loop may consult the event horizon.
	ctaEvent bool
	// arrived is how many launch-table kernels have reached their Arrival
	// cycle; Kernels() exposes exactly that prefix to dispatchers.
	arrived int
	// retired and evicted collect the cycle's CTA retirements and drain
	// evictions while the SMs tick — in ascending core index, so both are
	// already in (core, event) order. commitRetirements and commitPreemptions
	// replay them once the last SM has ticked, before the memory system does:
	// dispatcher, observer and kernel bookkeeping never see a half-ticked
	// machine, and wakeCore is never called from inside an SM's tick.
	retired, evicted []coreCTA
	// ffNextTry/ffBackoff throttle horizon probes. Probing costs real work
	// (every scheduler and memory queue is consulted), so an attempt that
	// finds nothing to skip doubles the wait before the next attempt; a
	// productive skip resets it. Busy phases therefore pay a bounded,
	// vanishing probe overhead while stall phases skip at full fidelity.
	ffNextTry uint64
	ffBackoff uint64
	// activity tracks which SMs have ready work this cycle (built by
	// RunContext, nil before). Sleeping SMs are not ticked at all; wakeCore
	// is the only way back in.
	activity *activitySet
	// postTick is true between the SM ticks and the end of the cycle (commits
	// and the memory tick). wakeCore uses it to pick the sync boundary: once
	// the SMs have ticked, a sleeping core provably accounts for the current
	// cycle too, and cannot tick again before the next one.
	postTick bool
	// engine is the run's execution accounting.
	engine EngineStats
}

// New builds a GPU running specs (in launch order) under dispatcher d.
// Every spec must validate and fit on an SM.
func New(cfg Config, d core.Dispatcher, specs ...*kernel.Spec) (*GPU, error) {
	if cfg.NumCores <= 0 {
		return nil, fmt.Errorf("gpu: NumCores = %d", cfg.NumCores)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("gpu: no kernels")
	}
	if cfg.NumCores > 255 {
		return nil, fmt.Errorf("gpu: NumCores %d exceeds response-routing width", cfg.NumCores)
	}
	g := &GPU{cfg: cfg, dispatcher: d}
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if n, binding := cfg.Core.Limits.MaxResident(spec); n == 0 {
			return nil, fmt.Errorf("gpu: kernel %s does not fit one SM (%s)", spec.Name, binding)
		}
		if i > 0 && spec.Arrival < specs[i-1].Arrival {
			// Arrived kernels are always a prefix of the launch table, so
			// dispatchers can keep indexing kernels by launch position.
			return nil, fmt.Errorf("gpu: kernel %s arrives at %d, before its predecessor (%d); arrivals must be nondecreasing in launch order",
				spec.Name, spec.Arrival, specs[i-1].Arrival)
		}
		g.kernels = append(g.kernels, &core.KernelState{
			Spec:     spec,
			Idx:      i,
			AddrBase: uint64(i+1) * addrSpaceStride,
		})
	}
	g.memsys = mem.NewSystem(&cfg.Mem, cfg.NumCores)
	g.cores = make([]*sm.SM, cfg.NumCores)
	g.coreCfgs = make([]sm.Config, cfg.NumCores)
	for i := range g.cores {
		g.coreCfgs[i] = cfg.Core // per-SM copy: SetWarpPolicy is per core
		g.cores[i] = sm.New(i, &g.coreCfgs[i], g.memsys, len(specs), g.onCTADone)
		g.cores[i].SetDrainHandler(g.onCTADrained)
		g.cores[i].SetWakeHandler(g.wakeCore)
	}
	g.memsys.SetResponseHook(g.wakeCore)
	return g, nil
}

// wakeCore is the single wake funnel: the SMs' pre-mutation notification
// (AddCTA, and Preempt below) and the memory system's response-delivery hook
// both land here, never from inside an SM's tick. It settles the target core's
// lazily-accrued counters up to the current cycle boundary — callers invoke
// it *before* mutating the core, while the parked window is still provably
// quiet — then lowers the core's wake bound so the skipped SM is ticked
// again in time. Waking an active core is a harmless no-op.
func (g *GPU) wakeCore(coreID int, at uint64) {
	sync, wake := at, at
	if g.postTick {
		// The SM ticks of cycle g.now already ran: the core either ticked this
		// cycle or slept through it (its wake bound is beyond g.now), so
		// cycle g.now is provably accounted for — settle through it while
		// that proof still holds, and wake no earlier than the next cycle.
		sync = g.now + 1
		if wake <= g.now {
			wake = g.now + 1
		}
	}
	g.cores[coreID].SyncTo(sync)
	if g.activity != nil {
		g.activity.wake(coreID, wake)
	}
}

// syncAllTo settles every core's lazily-accrued counters through cycle t
// (exclusive) — run before any consumer that may read a sleeping core's
// Stats: the dispatcher when it is due to act, commit callbacks, the epoch
// hook, and final collection. Cores already synced past t are untouched.
func (g *GPU) syncAllTo(t uint64) {
	for _, c := range g.cores {
		c.SyncTo(t)
	}
}

// SetObserver registers an experiment probe called on every CTA retirement
// (before the dispatcher sees it). Must be set before Run.
func (g *GPU) SetObserver(fn func(coreID int, cta *sm.CTA, now uint64)) {
	g.observer = fn
}

// SetEpochHook registers fn to run every `every` cycles during Run (cycle 0
// included) — the sampling hook the timeline tracer uses. Must be set
// before Run.
func (g *GPU) SetEpochHook(every uint64, fn func(now uint64)) {
	if every == 0 {
		every = 1024
	}
	g.epochEvery = every
	g.epochFn = fn
}

// EngineStats reports how the cycle loop executed the run so far (complete
// once Run returns).
func (g *GPU) EngineStats() EngineStats {
	e := g.engine
	for _, c := range g.cores {
		walks, served := c.IssueCounts()
		e.IssueWalks += walks
		e.IssueServed += served
	}
	return e
}

// MemSystem exposes the shared memory hierarchy (tracing and tests).
func (g *GPU) MemSystem() *mem.System { return g.memsys }

// Now implements core.Machine.
func (g *GPU) Now() uint64 { return g.now }

// NumCores implements core.Machine.
func (g *GPU) NumCores() int { return len(g.cores) }

// Core implements core.Machine.
func (g *GPU) Core(i int) *sm.SM { return g.cores[i] }

// Kernels implements core.Machine. It returns only the kernels that have
// arrived: g.kernels holds the full launch table, and because arrivals are
// validated nondecreasing the arrived set is always a prefix, so the slice
// header is the whole gate — no per-call allocation, and launch-position
// indexing stays valid for dispatchers.
func (g *GPU) Kernels() []*core.KernelState { return g.kernels[:g.arrived] }

// admitArrivals moves newly arrived kernels into the dispatchers' view of
// the launch table. An admission changes dispatch state, so the cycle is
// marked non-idle (fast-forward additionally clamps its horizon to the next
// pending arrival, so no admission cycle is ever skipped).
func (g *GPU) admitArrivals() {
	for g.arrived < len(g.kernels) && g.kernels[g.arrived].Spec.Arrival <= g.now {
		g.arrived++
		g.ctaEvent = true
	}
}

// Preempt implements core.Machine: it asks core coreID to drain cta for
// preemption. The request is accepted only for a resident, running CTA (a
// natural completion that raced the request loses it harmlessly). The
// eviction itself lands later, through commitPreemptions.
func (g *GPU) Preempt(coreID int, cta *sm.CTA) bool {
	if coreID < 0 || coreID >= len(g.cores) {
		return false
	}
	// Settle and wake before the drain flag lands: the drain changes what a
	// replayed stall window would look like, so the window must close first.
	// If the request is refused the spurious wake costs one visit.
	g.wakeCore(coreID, g.now)
	return g.cores[coreID].DrainCTA(cta)
}

// coreCTA is one recorded retirement or eviction: cta left core this cycle.
type coreCTA struct {
	core int
	cta  *sm.CTA
}

// onCTADone and onCTADrained are the SMs' retirement and drain-eviction
// callbacks. They run inside an SM's tick, so they only record the event;
// every side effect on machine-wide state happens in commitRetirements and
// commitPreemptions, once every SM has ticked.
func (g *GPU) onCTADone(coreID int, cta *sm.CTA) {
	g.retired = append(g.retired, coreCTA{coreID, cta})
}

func (g *GPU) onCTADrained(coreID int, cta *sm.CTA) {
	g.evicted = append(g.evicted, coreCTA{coreID, cta})
}

// commitRetirements replays the cycle's CTA retirements in (core, retirement)
// order: kernel completion bookkeeping, the experiment observer, then the
// dispatcher's OnCTAComplete probe — at a fixed point of the cycle, after
// every core ticked and before the memory system ticks.
func (g *GPU) commitRetirements() {
	// Index loop, not range: no current callback retires a CTA synchronously,
	// but if one ever does, its append replays in this same commit, in order,
	// instead of being discarded by the reset below.
	for i := 0; i < len(g.retired); i++ {
		c, cta := g.retired[i].core, g.retired[i].cta
		g.retired[i].cta = nil
		g.ctaEvent = true
		ks := g.kernels[cta.KernelIdx]
		ks.Completed++
		if ks.Done() {
			ks.DoneCycle = g.now
			g.doneCount++
		}
		if g.observer != nil {
			g.observer(c, cta, g.now)
		}
		g.dispatcher.OnCTAComplete(g, c, cta)
		// Every consumer of this retirement has now run, so the context can
		// go back to its core's pool. A placement made by a later callback
		// this same cycle may already reuse it.
		g.cores[c].Recycle(cta)
	}
	g.retired = g.retired[:0]
}

// commitPreemptions replays the cycle's drain evictions in (core, eviction)
// order, after retirements and before the memory system ticks: the evicted
// CTA id joins its kernel's re-dispatch queue, per-kernel eviction counters
// advance, and a dispatcher implementing PreemptionObserver is notified. This
// is the only place evictions touch machine-wide state, so the requeue order
// is a pure function of (eviction cycle, core index).
func (g *GPU) commitPreemptions() {
	po, _ := g.dispatcher.(core.PreemptionObserver)
	for i := 0; i < len(g.evicted); i++ { // index loop: see commitRetirements
		c, cta := g.evicted[i].core, g.evicted[i].cta
		g.evicted[i].cta = nil
		// An eviction changes dispatch state (capacity freed, requeue grown),
		// so the cycle is never idle for fast-forward purposes.
		g.ctaEvent = true
		ks := g.kernels[cta.KernelIdx]
		ks.Requeue(cta.ID)
		if po != nil {
			po.OnCTAEvicted(g, c, cta)
		}
		// Eviction guarantees memRefs == 0, so the context pools immediately;
		// the re-dispatch builds a fresh CTA from the id.
		g.cores[c].Recycle(cta)
	}
	g.evicted = g.evicted[:0]
}

// Run simulates to completion (or MaxCycles) and returns the result.
// A GPU is single-shot: Run must be called once.
func (g *GPU) Run() Result {
	res, _ := g.RunContext(context.Background())
	return res
}

// ctxCheckInterval is how often (in cycles) RunContext polls for
// cancellation — rare enough to keep the cycle loop hot, frequent enough
// that cancellation lands within microseconds of wall time.
const ctxCheckInterval = 4096

// RunContext is Run with cooperative cancellation: when ctx is canceled
// the cycle loop stops mid-flight and the context's error is returned
// alongside the partial result.
//
// The loop is serial; cores are spent on concurrent simulations instead
// (sim.Service). Each cycle ticks the SMs with ready work in ascending core
// index — each sending straight into the request crossbar and popping its own
// response FIFO — then replays CTA retirements and evictions in the same
// order, then ticks the memory system. A parked SM exports nothing, so
// skipping it cannot reorder the ones that run: the committed state is what
// ticking every SM every cycle in index order produces — the loop
// DisableFastForward selects.
//
// Which SMs have ready work is tracked by an activity set: after ticking, an
// SM that issued nothing and can prove at least Granule quiet cycles ahead
// parks and is skipped — not visited at all — until its wake cycle arrives or
// an external event (CTA placement, drain request, memory response) lowers
// its bound through wakeCore. The skipped cycles'
// ActiveCycles and stall counters accrue lazily: each SM carries a
// synced-through watermark and replays the gap in one FastForward the next
// time it runs (or when a reader forces syncAllTo). Parking is semantically
// inert — the park/wake decisions are pure per-SM functions — so results are
// byte-identical for every granule; the golden determinism tests sweep it.
//
// The loop runs cycle-by-cycle while anything happens. After a cycle in
// which no CTA was placed or retired and no instruction issued, it asks
// every component for its event horizon — the earliest future cycle at
// which it can act — and jumps straight there. Sleeping SMs contribute
// their wake bounds through the activity set's table minimum instead of
// being probed individually, so the probe cost scales with the live set.
// The jump is exact, not approximate: every NextEvent bound is conservative
// and the skipped window is provably frozen, so results are bit-identical
// to the reference loop (Config.DisableFastForward selects it; the golden
// determinism tests diff the two). Horizon probes run on the post-commit
// state, after the memory tick.
//
// The dispatcher is polled only when it can act. A FastForwarder certifies
// that its Tick is a pure no-op while no CTA is placed, retires, is evicted
// or arrives and its NextDispatchEvent bound lies ahead; fast-forward uses
// that certificate to jump idle stretches, and the loop uses the same one on
// busy cycles to skip the Tick call itself (a full machine re-polls every
// SM's CanAccept each cycle otherwise). The reference loop
// (DisableFastForward) ticks the dispatcher every cycle, so the FF-on/FF-off
// goldens diff the skip as well as the jump.
func (g *GPU) RunContext(ctx context.Context) (Result, error) {
	maxCycles := g.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	ff, _ := g.dispatcher.(core.FastForwarder)
	if g.cfg.DisableFastForward {
		ff = nil
	}
	// Parking rides on the same proof machinery as fast-forward: without a
	// FastForwarder the quiet-window replay has no dispatcher bound, so the
	// reference configuration keeps every SM in the active set permanently.
	sleepOK := ff != nil
	granule := g.cfg.resolveGranule()
	as := newActivitySet(len(g.cores))
	g.activity = as
	// issued records that some SM issued an instruction this cycle.
	issued := false
	// visit ticks one SM for the current cycle and returns its next wake
	// bound: <= now+1 keeps it active, anything later parks it.
	visit := func(i int) uint64 {
		c := g.cores[i]
		before := c.Stats.InstrIssued
		now := g.now
		c.Tick(now)
		if c.Stats.InstrIssued != before {
			issued = true
			return 0
		}
		if !sleepOK {
			return 0
		}
		// The SM stalled this cycle; ask whether the stall provably extends
		// a full granule. Its own bound — the schedulers' stall certificates
		// and the LDST unit, a few words to read — covers pipeline and L1/LDST
		// state; the response pipe bound covers replies already in flight
		// toward it (later deliveries wake it through the response hook).
		wake := c.NextEvent(now + 1)
		if rv := g.memsys.ResponseNextReady(i); rv < wake {
			wake = rv
		}
		if wake >= now+1+granule {
			return wake
		}
		return 0
	}
	batchCap := g.cfg.resolveBatchWindow()
	// dispQuiet is the machine half of the dispatcher-quiescence certificate:
	// the last dispatcher.Tick placed nothing, and no CTA has retired, been
	// evicted or arrived since.
	dispQuiet := false
	done := ctx.Done()
	for g.doneCount < len(g.kernels) && g.now < maxCycles {
		if done != nil && g.now%ctxCheckInterval == 0 {
			select { //gpulint:allow nogoroutine cancellation poll only aborts the run; a canceled simulation returns an error and is never cached or reported
			case <-done:
				g.syncAllTo(g.now)
				return g.collect(), ctx.Err()
			default:
			}
		}
		if g.epochFn != nil && g.now%g.epochEvery == 0 {
			if as.sleeping() > 0 {
				g.syncAllTo(g.now) // the hook may read any core's counters
			}
			g.epochFn(g.now)
		}
		issued = false
		g.ctaEvent = false
		g.admitArrivals()
		tickDispatcher := true
		if ff != nil {
			due := ff.NextDispatchEvent(g.now) <= g.now
			if due && as.sleeping() > 0 {
				// The dispatcher acts this cycle and may read per-core
				// counters (DynCTA's epoch adjustment does); settle the
				// sleepers first. Every sleeper's wake bound is beyond the
				// last ticked cycle, so the replayed window is provably quiet.
				g.syncAllTo(g.now)
			}
			tickDispatcher = due || !dispQuiet || g.ctaEvent
		}
		if tickDispatcher {
			placed := g.dispatchedCTAs()
			g.dispatcher.Tick(g)
			dispQuiet = g.dispatchedCTAs() == placed
			g.engine.DispatcherTicks++
		} else {
			g.engine.DispatcherSkips++
		}
		if sleepOK && batchCap > 1 && as.idle(g.now) && g.memsys.NextEvent(g.now) <= g.now {
			// Quiet window: every SM is parked past this cycle and the memory
			// system has work — the SM ticks and the commits are provably
			// no-ops for every cycle before the window end, so run the whole
			// window's memory ticks in one call.
			if end := g.batchWindowEnd(ff, done != nil, maxCycles, batchCap); end > g.now+1 {
				g.engine.CyclesBatched += end - g.now
				// The window's response hooks fire at its end, so park the
				// clock on its last cycle with postTick set: their wake/sync
				// semantics are then exactly what per-cycle execution would
				// have produced — every core provably slept through the
				// window, so wakeCore settles it to the window end and wakes
				// it no earlier.
				from := g.now
				g.now = end - 1
				g.postTick = true
				g.memsys.TickWindow(from, end)
				g.now = end
				g.postTick = false
				continue
			}
		}
		as.tick(g.now, visit)
		g.postTick = true
		if as.sleeping() > 0 && len(g.retired)+len(g.evicted) > 0 {
			// Commit callbacks (the observer, dispatcher probes) may read
			// any core's counters; settle sleepers through this cycle —
			// the SM ticks just proved they slept through it.
			g.syncAllTo(g.now + 1)
		}
		g.commitRetirements()
		g.commitPreemptions()
		if g.ctaEvent {
			dispQuiet = false
		}
		g.memsys.Tick(g.now)
		// Only the dispatcher's Tick and the commit callbacks place CTAs, and a
		// commit sets ctaEvent, so !ctaEvent && dispQuiet is "nothing placed".
		idle := ff != nil && !g.ctaEvent && dispQuiet && !issued
		g.now++
		g.engine.CyclesTicked++
		g.postTick = false
		if idle && g.now >= g.ffNextTry {
			skipped := g.fastForward(ff, done != nil, maxCycles)
			g.engine.CyclesFastForwarded += skipped
			if skipped == 0 {
				if g.ffBackoff < maxFFBackoff {
					g.ffBackoff = max(2*g.ffBackoff, 2)
				}
				g.ffNextTry = g.now + g.ffBackoff
			} else {
				g.ffBackoff = 0
			}
		}
	}
	g.syncAllTo(g.now)
	return g.collect(), nil
}

// dispatchedCTAs sums placement counts over the launch table; a delta
// across a cycle means the dispatcher placed work. Placed (not NextCTA)
// also counts re-dispatches of evicted CTAs, which pop the requeue without
// advancing NextCTA.
func (g *GPU) dispatchedCTAs() int {
	n := 0
	for _, ks := range g.kernels {
		n += ks.Placed
	}
	return n
}

// maxFFBackoff bounds the probe backoff so a long busy phase ending in a
// deep stall starts skipping again within a few hundred cycles. Only a
// probe that skips nothing at all grows the backoff: memory round trips
// ripple through the pipeline in short (1–4 cycle) hops between the long
// DRAM windows, and punishing those small-but-real jumps starves the skip
// chain exactly where it pays most.
const maxFFBackoff = 256

// fastForward jumps g.now to the machine's event horizon: the earliest
// cycle at which the dispatcher, any core, or the memory hierarchy can act.
// The skipped window [g.now, horizon) is provably frozen — the previous
// cycle did nothing and no component wakes inside it — so each core merely
// accrues the stall counters its Tick would have produced. The horizon is
// clamped so no epoch-hook cycle (and, when cancellation is armed, no
// context-check cycle) falls strictly inside the skipped window, and never
// exceeds maxCycles: the cap cycle itself is never executed, matching the
// reference loop's exit arithmetic. Returns how many cycles were skipped.
//
//gpulint:hotpath
func (g *GPU) fastForward(ff core.FastForwarder, clampCtx bool, maxCycles uint64) uint64 {
	from := g.now
	horizon := ff.NextDispatchEvent(from)
	if g.arrived < len(g.kernels) {
		// A pending kernel arrival changes dispatch state; its cycle must
		// execute, not be skipped.
		if a := g.kernels[g.arrived].Spec.Arrival; a < horizon {
			horizon = a
		}
	}
	if ev := g.memsys.NextEvent(from); ev < horizon {
		horizon = ev
	}
	// Sleeping SMs contribute through the activity set's table minimum — a
	// word compare each instead of a NextEvent probe each.
	if hv := g.activity.horizon(); hv < horizon {
		horizon = hv
	}
	if horizon <= from {
		return 0
	}
	// Sleepers due at from are not active; the minimum above bounds exactly
	// those.
	for i, at := range g.activity.wakeAt {
		if at != 0 {
			continue
		}
		if ev := g.cores[i].NextEvent(from); ev < horizon {
			horizon = ev
		}
		if horizon <= from {
			return 0
		}
	}
	if horizon > maxCycles {
		horizon = maxCycles
	}
	if g.epochFn != nil {
		horizon = clampToBoundary(horizon, from, g.epochEvery)
	}
	if clampCtx {
		horizon = clampToBoundary(horizon, from, ctxCheckInterval)
	}
	if horizon <= from {
		return 0
	}
	// Only the live set accrues eagerly; sleepers stay lazy (their watermark
	// replay covers the same window when they next run). The horizon never
	// reaches a sleeper's wake cycle, so no parked SM oversleeps the jump.
	for i, at := range g.activity.wakeAt {
		if at == 0 {
			g.cores[i].SyncTo(horizon)
		}
	}
	g.now = horizon
	return horizon - from
}

// batchWindowEnd bounds a quiet window starting at g.now: the largest end
// such that every cycle in [g.now, end) provably needs only a memory-system
// tick. The caller has established that no SM is runnable at g.now and that
// this cycle's dispatcher tick already ran; the clamps guarantee the rest:
//
//   - cap (≤ crossbar latency): a response delivered at cycle c inside the
//     window becomes poppable at c+XbarLatency ≥ end, and its wake hook
//     lands ≥ end, so no SM needs to tick before the window ends;
//   - NextDispatchEvent(g.now+1): the dispatcher provably does nothing at
//     the skipped cycles (the same contract fastForward uses);
//   - the next kernel arrival, the activity set's earliest wake, MaxCycles,
//     and the epoch/context boundaries, all of which must execute at the
//     top of the loop.
//
// Any end ≤ g.now+1 means "no window": a one-cycle batch is the normal path.
func (g *GPU) batchWindowEnd(ff core.FastForwarder, clampCtx bool, maxCycles, cap uint64) uint64 {
	from := g.now
	end := from + cap
	if nd := ff.NextDispatchEvent(from + 1); nd < end {
		end = nd
	}
	if g.arrived < len(g.kernels) {
		if a := g.kernels[g.arrived].Spec.Arrival; a < end {
			end = a
		}
	}
	if hv := g.activity.horizon(); hv < end {
		end = hv
	}
	if end > maxCycles {
		end = maxCycles
	}
	if end <= from+1 {
		return from
	}
	// Boundary cycles run hooks/polls at the top of the loop; from itself
	// already ran them, so only (from, end) must stay boundary-free.
	if g.epochFn != nil {
		end = clampToBoundary(end, from+1, g.epochEvery)
	}
	if clampCtx {
		end = clampToBoundary(end, from+1, ctxCheckInterval)
	}
	return end
}

// clampToBoundary caps horizon so that no multiple of every lies in
// [from, horizon): boundary cycles run hooks at the top of the loop, so
// they must be executed, not skipped. A boundary at horizon itself is fine
// — that cycle executes.
func clampToBoundary(horizon, from, every uint64) uint64 {
	next := from + (every-from%every)%every
	if next < horizon {
		return next
	}
	return horizon
}

//gpulint:synced RunContext runs syncAllTo(g.now) before both collect call sites, so every core's lazy counters are settled
func (g *GPU) collect() Result {
	r := Result{
		Cycles:   g.now,
		TimedOut: g.doneCount < len(g.kernels),
	}
	var latSum, latN uint64
	for _, c := range g.cores {
		s := c.Stats
		r.Core.ActiveCycles += s.ActiveCycles
		r.Core.InstrIssued += s.InstrIssued
		r.Core.ThreadInstr += s.ThreadInstr
		r.Core.IssueStallCycles += s.IssueStallCycles
		r.Core.StallScoreboard += s.StallScoreboard
		r.Core.StallLDSTFull += s.StallLDSTFull
		r.Core.StallBarrier += s.StallBarrier
		r.Core.StallDrain += s.StallDrain
		r.Core.CTAsCompleted += s.CTAsCompleted
		r.Core.CTAsDrained += s.CTAsDrained
		r.Core.SharedAccesses += s.SharedAccesses
		r.Core.SharedConflictPasses += s.SharedConflictPasses
		r.L1.Add(c.L1Stats())
		sum, n := c.MemLatencyRaw()
		latSum += sum
		latN += n
	}
	r.InstrIssued = r.Core.InstrIssued
	r.ThreadInstr = r.Core.ThreadInstr
	r.IPC = stats.IPC(r.InstrIssued, r.Cycles)
	r.L2 = g.memsys.L2Stats()
	r.DRAM = g.memsys.DRAMStats()
	if latN > 0 {
		r.AvgMemLatency = float64(latSum) / float64(latN)
	}
	for _, ks := range g.kernels {
		k := stats.Kernel{
			Name:        ks.Spec.Name,
			LaunchCycle: ks.LaunchCycle,
			DoneCycle:   ks.DoneCycle,
			CTAs:        ks.Spec.NumCTAs(),
			Evicted:     ks.Evicted,
		}
		for _, c := range g.cores {
			k.InstrIssued += c.KernelIssued[ks.Idx]
		}
		r.Kernels = append(r.Kernels, k)
	}
	return r
}
