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
}

// DefaultMaxCycles is the runaway-simulation cap applied when
// Config.MaxCycles is zero — the single definition every layer shares.
const DefaultMaxCycles uint64 = 20_000_000

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
// execution, not the simulated machine: RunReference reports different
// numbers for the same Result, so it is never part of Result and never
// enters a cache key.
type EngineStats struct {
	// CyclesTicked counts cycles that ran the full loop body (the SM ticks,
	// the commits, the memory tick). The other two split the cycles the
	// advance step covered while every SM was parked: CyclesFastForwarded
	// those it jumped over outright, CyclesBatched those in which it ticked
	// the memory system alone. The three sum to Result.Cycles.
	CyclesTicked        uint64
	CyclesFastForwarded uint64
	CyclesBatched       uint64
	// DispatcherTicks counts dispatcher.Tick calls; DispatcherSkips counts
	// ticked cycles where the quiescence certificate proved Tick a no-op and
	// it was not called. Exactly one of the two advances per ticked cycle; the
	// advance step polls the dispatcher on none of the cycles it covers.
	DispatcherTicks uint64
	DispatcherSkips uint64
	// IssueWalks counts scheduler-cycles (one warp scheduler with resident
	// warps, one cycle) whose verdict took a walk over the warps, IssueServed
	// those read from a stall certificate (sm.SM.IssueCounts, summed). Together
	// they are Result.Core.InstrIssued + IssueStallCycles. IssueEvals counts
	// the warps whose readiness those walks evaluated in full; the rest of
	// the warps a walk passes over are ruled out by the scheduler's warp sets
	// and stall cache without being looked at.
	IssueWalks  uint64
	IssueServed uint64
	IssueEvals  uint64
	// PartitionTicks counts L2 partition Tick calls (mem.System.PartitionTicks),
	// out of Result.Cycles × Mem.Partitions partition-cycles: the memory
	// system ticks a partition only on cycles it can act, whichever loop
	// drives it.
	PartitionTicks uint64
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
	// dispQuiet is the machine half of the dispatcher-quiescence certificate:
	// the last dispatcher.Tick placed nothing and admitted no kernel, and no
	// CTA has retired or been evicted since. The dispatcher tick sets it and
	// both commits clear it.
	dispQuiet bool
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
	// activity tracks which SMs have ready work this cycle (built by
	// RunContext; nil on RunReference). Sleeping SMs are not ticked at all;
	// wakeCore is the only way back in.
	activity *activitySet
	// postTick is true between the SM ticks and the end of the cycle (commits
	// and the memory tick). wakeCore and CoreCounters use it to pick the
	// counter boundary: once the SMs have ticked, a sleeping core provably
	// accounts for the current cycle too, and cannot tick again before the
	// next one.
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
	if n := cfg.Core.NumSchedulers; n <= 0 {
		return nil, fmt.Errorf("gpu: NumSchedulers = %d", n)
	} else if per := (cfg.Core.Limits.MaxWarps + n - 1) / n; per > sm.MaxSchedulerWarps {
		return nil, fmt.Errorf("gpu: %d warps per scheduler (MaxWarps %d over %d schedulers) exceeds the warp-set width %d",
			per, cfg.Core.Limits.MaxWarps, n, sm.MaxSchedulerWarps)
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultMaxCycles
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
// both land here, never from inside an SM's tick. It stores the target core's
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
	e.PartitionTicks = g.memsys.PartitionTicks()
	for _, c := range g.cores {
		walks, served, evals := c.IssueCounts(g.now)
		e.IssueWalks += walks
		e.IssueServed += served
		e.IssueEvals += evals
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

// CoreCounters implements core.Machine: core i's counters through the current
// stage boundary — g.now before the SMs tick, g.now+1 once they have (the
// boundary wakeCore settles at) — so every reader in one stage sees every
// core through the same cycle, parked or not.
func (g *GPU) CoreCounters(i int) stats.Core {
	t := g.now
	if g.postTick {
		t++
	}
	return g.cores[i].Counters(t)
}

// Kernels implements core.Machine. It returns only the kernels that have
// arrived: g.kernels holds the full launch table, and because arrivals are
// validated nondecreasing the arrived set is always a prefix, so the slice
// header is the whole gate — no per-call allocation, and launch-position
// indexing stays valid for dispatchers.
func (g *GPU) Kernels() []*core.KernelState { return g.kernels[:g.arrived] }

// admitArrivals moves newly arrived kernels into the dispatchers' view of
// the launch table and reports whether any arrived. An admission changes
// dispatch state, so RunContext polls the dispatcher on that cycle and ends
// it not quiet (advance additionally clamps its target to the next pending
// arrival, so no admission cycle is ever skipped).
func (g *GPU) admitArrivals() bool {
	from := g.arrived
	for g.arrived < len(g.kernels) && g.kernels[g.arrived].Spec.Arrival <= g.now {
		g.arrived++
	}
	return g.arrived != from
}

// Preempt implements core.Machine: it asks core coreID to drain cta for
// preemption. The request is accepted only for a resident, running CTA (a
// natural completion that raced the request loses it harmlessly). The
// eviction itself lands later, through commitPreemptions.
func (g *GPU) Preempt(coreID int, cta *sm.CTA) bool {
	if coreID < 0 || coreID >= len(g.cores) {
		return false
	}
	// Settle and wake before the drain flag lands: the drain clears the stall
	// certificates the parked window is charged from, so it must close first.
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
		g.dispQuiet = false
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
		// so the cycle is never idle for advance purposes.
		g.dispQuiet = false
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

// ctxCheckInterval is how often (in cycles) the cycle loops poll for
// cancellation — rare enough to keep the cycle loop hot, frequent enough
// that cancellation lands within microseconds of wall time.
const ctxCheckInterval = 4096

// canceled is both cycle loops' cancellation poll, run on poll cycles.
func canceled(ctx context.Context) bool {
	select { //gpulint:allow nogoroutine cancellation poll only aborts the run; a canceled simulation returns an error and is never cached or reported
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// RunContext is Run with cooperative cancellation: when ctx is canceled
// the cycle loop stops mid-flight and the context's error is returned
// alongside the partial result.
//
// The loop is serial (sim.Service runs simulations concurrently instead) and
// commits exactly what RunReference commits — the dispatcher, every SM in
// index order, both commits and the memory system, every cycle — while
// skipping the work it proves empty (DESIGN.md, "Idle skipping"):
//   - An SM whose NextEvent bound (and its response FIFO's) lies beyond the
//     next cycle parks in the activity set and is not visited until then or
//     until wakeCore lowers its bound. A parked SM exports nothing, so the
//     SMs that run keep their index order, and its counters are charged from
//     its stall certificates on read (CoreCounters).
//   - The dispatcher is not ticked while dispQuiet holds and its
//     NextDispatchEvent lies ahead (a full machine re-polls every SM's
//     CanAccept each cycle otherwise).
//   - When a cycle leaves every SM parked and the dispatcher quiet, advance
//     covers the stretch up to the first cycle anything but the memory system
//     can act, ticking only the memory system.
//
// Every bound is conservative, so results are bit-identical to RunReference;
// the golden determinism tests diff the two.
func (g *GPU) RunContext(ctx context.Context) (Result, error) {
	as := newActivitySet(len(g.cores))
	g.activity = as
	// visit ticks one SM for the current cycle and returns its next wake
	// bound: <= now+1 keeps it active, anything later parks it.
	visit := func(i int) uint64 {
		c := g.cores[i]
		before := c.InstrIssued()
		now := g.now
		c.Tick(now)
		if c.InstrIssued() != before {
			// An SM that issued holds no stall certificate, so its bound would
			// be now+1 anyway: skipping the probe saves it on every issuing
			// cycle (1 % of sim-issue host time).
			return 0
		}
		// The SM's own bound — the schedulers' stall certificates and the LDST
		// unit, a few words to read — covers pipeline and L1/LDST state; the
		// response pipe bound covers replies already in flight toward it
		// (later deliveries wake it through the response hook).
		return min(c.NextEvent(now+1), g.memsys.ResponseNextReady(i))
	}
	live := ctx.Done() != nil
	for g.doneCount < len(g.kernels) && g.now < g.cfg.MaxCycles {
		if live && g.now%ctxCheckInterval == 0 && canceled(ctx) {
			return g.collect(), ctx.Err()
		}
		if g.epochFn != nil && g.now%g.epochEvery == 0 {
			g.epochFn(g.now)
		}
		arrived := g.admitArrivals()
		if arrived || !g.dispQuiet || g.dispatcher.NextDispatchEvent(g.now) <= g.now {
			placed := g.dispatchedCTAs()
			g.dispatcher.Tick(g)
			g.dispQuiet = !arrived && g.dispatchedCTAs() == placed
			g.engine.DispatcherTicks++
		} else {
			g.engine.DispatcherSkips++
		}
		as.tick(g.now, visit)
		g.postTick = true
		g.commitRetirements()
		g.commitPreemptions()
		g.memsys.Tick(g.now)
		g.now++
		g.engine.CyclesTicked++
		g.postTick = false
		// Only the dispatcher's Tick and the commit callbacks place CTAs, and a
		// commit clears dispQuiet, so dispQuiet here is "nothing placed".
		if g.dispQuiet && as.sleeping() == len(g.cores) {
			g.advance(live)
		}
	}
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

// advance covers an all-parked stretch starting at g.now: the cycle before
// it left every SM parked beyond it, placed nothing, and retired, evicted and
// admitted nothing. Until a target — the first of the dispatcher's next
// event, the next kernel arrival, the earliest SM wake and MaxCycles — no SM
// tick, commit or dispatcher poll can do anything, so only the memory system
// has to run. The target is clamped so that no epoch-hook cycle (and, when
// cancellation is armed, no context-poll cycle) falls in [g.now, target):
// those run at the top of the loop. The target itself is executed, never
// skipped — except the MaxCycles cap, which is never executed, matching
// RunReference's exit arithmetic.
//
// Where the memory system is quiet too, advance jumps. Where it has work, it
// ticks it alone in windows of at most XbarLatency cycles: a response
// delivered at cycle c becomes poppable at c+XbarLatency, at or after the
// window's end, so no SM could have popped it inside the window. The
// window's response hooks fire at its end, so the clock is parked on its last
// cycle with postTick set: wakeCore then settles each woken core through the
// window and wakes it no earlier than the window's end — what per-cycle
// execution would have produced. A wake may lower the earliest SM wake, so
// the target is recomputed after every window. Parked SMs stay lazy
// throughout: their stall certificates charge the stretch on read.
func (g *GPU) advance(clampCtx bool) {
	window := max(g.cfg.Mem.XbarLatency, 1)
	for {
		from := g.now
		target := min(g.dispatcher.NextDispatchEvent(from), g.activity.horizon(), g.cfg.MaxCycles)
		if g.arrived < len(g.kernels) {
			target = min(target, g.kernels[g.arrived].Spec.Arrival)
		}
		if g.epochFn != nil {
			target = clampToBoundary(target, from, g.epochEvery)
		}
		if clampCtx {
			target = clampToBoundary(target, from, ctxCheckInterval)
		}
		if target <= from {
			return
		}
		ev := g.memsys.NextEvent(from)
		if ev >= target {
			g.engine.CyclesFastForwarded += target - from
			g.now = target
			return
		}
		end := min(target, ev+window)
		g.engine.CyclesFastForwarded += ev - from
		g.engine.CyclesBatched += end - ev
		g.now = end - 1
		g.postTick = true
		g.memsys.TickWindow(ev, end)
		g.now = end
		g.postTick = false
	}
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

// collect builds the Result at g.now; both call sites run at the top of a
// cycle, so CoreCounters reads every core through g.now.
func (g *GPU) collect() Result {
	r := Result{
		Cycles:   g.now,
		TimedOut: g.doneCount < len(g.kernels),
	}
	var latSum, latN uint64
	for i, c := range g.cores {
		s := g.CoreCounters(i)
		r.Core.Add(&s)
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
