// Package gpu wires the simulator together: an array of SMs, the shared
// memory system, a launch table of kernels, and a CTA-scheduling Dispatcher
// from internal/core. It owns the cycle loop and produces the Result record
// the experiment harness consumes.
package gpu

import (
	"context"
	"fmt"
	"slices"

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
	// CyclesTicked counts cycles in which the dispatcher or an SM ticked,
	// CyclesBatched those in which only L2 partitions ticked, and
	// CyclesFastForwarded those in which nothing ticked: the cycles the
	// calendar jumped over, and the epoch-hook and context-poll cycles it
	// stopped at with nothing due. The three sum to Result.Cycles.
	CyclesTicked        uint64
	CyclesFastForwarded uint64
	CyclesBatched       uint64
	// DispatcherTicks counts dispatcher.Tick calls; DispatcherSkips counts
	// ticked cycles where the quiescence certificate proved Tick a no-op and
	// it was not called. Exactly one of the two advances per ticked cycle.
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
	// PartitionTicks counts L2 partition Tick calls, out of Result.Cycles ×
	// Mem.Partitions partition-cycles. RunReference ticks every one;
	// RunContext ticks a partition only on cycles its wake bound says it
	// can act.
	PartitionTicks uint64
	// SMTicks counts SM Tick calls, out of Result.Cycles × NumCores
	// SM-cycles. RunReference ticks every one; RunContext skips the cycles
	// an SM is parked.
	SMTicks uint64
}

// GPU is one simulated device with a fixed launch table.
type GPU struct {
	cfg        Config
	cores      []*sm.SM
	memsys     *mem.System
	dispatcher core.Dispatcher
	// preemptObs is the dispatcher as a core.PreemptionObserver, nil when it
	// is not one; resolved once in New, not per commit.
	preemptObs core.PreemptionObserver
	kernels    []*core.KernelState
	now        uint64
	doneCount  int
	// observer, when set, sees every CTA retirement (experiment probes).
	observer func(coreID int, cta *sm.CTA, now uint64)
	// epochFn, when set, runs every epochEvery cycles (tracing hooks).
	epochFn    func(now uint64)
	epochEvery uint64
	// dispAt is the dispatcher's wake bound, the first cycle RunContext must
	// tick it at. After a tick that placed nothing and admitted no kernel it
	// is the dispatcher's NextDispatchEvent — its half of the quiescence
	// certificate, valid until the dispatcher's state moves — and otherwise
	// the next cycle. Both commits reset it to 0: a retirement or an eviction
	// changes dispatch state, so the dispatcher is due on the next cycle.
	dispAt uint64
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
	// cal holds the SMs' and the partitions' wake bounds. RunContext visits
	// only due ones; RunReference ignores it. The memory system reports its
	// wake events to it directly (mem.Waker), and wakeCore reports the rest.
	cal calendar
	// postTick is true between the SM ticks and the end of the cycle (commits
	// and the partition ticks). wakeCore and CoreCounters use it to pick the
	// counter boundary: once the SMs have ticked, a parked core provably
	// accounts for the current cycle too, and cannot tick again before the
	// next one.
	postTick bool
	// engine is the run's execution accounting.
	engine EngineStats
}

// New builds a GPU running specs (in launch order) under dispatcher d.
// Every spec must validate and fit on an SM, and cfg.Mem must validate
// (mem.Config.Validate): an error, not a panic while building the caches.
func New(cfg Config, d core.Dispatcher, specs ...*kernel.Spec) (*GPU, error) {
	return Renew(nil, cfg, d, specs...)
}

// Renew is New built on prev, a machine whose run is over (prev nil: a new
// one). The memory system and the SMs keep prev's arrays — tag stores, MSHR
// files, queues, rings, CTA and warp contexts — cleared to what new ones
// hold (mem.RenewSystem, sm.Renew); every other field is built as New
// builds it, so the machine runs exactly as a new one would. On success prev
// is the returned GPU and nothing else may use it; on error prev is
// untouched.
func Renew(prev *GPU, cfg Config, d core.Dispatcher, specs ...*kernel.Spec) (*GPU, error) {
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
	if err := cfg.Mem.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultMaxCycles
	}
	kernels := make([]*core.KernelState, 0, len(specs))
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
		kernels = append(kernels, &core.KernelState{
			Spec:     spec,
			Idx:      i,
			AddrBase: uint64(i+1) * addrSpaceStride,
		})
	}
	g := prev
	if g == nil {
		g = new(GPU)
	}
	old := *g
	n := cfg.NumCores
	*g = GPU{
		cfg:        cfg,
		dispatcher: d,
		kernels:    kernels,
		retired:    old.retired[:0],
		evicted:    old.evicted[:0],
		cal:        old.cal,
		cores:      slices.Grow(old.cores[:0], n)[:n],
	}
	g.preemptObs, _ = d.(core.PreemptionObserver)
	g.memsys = mem.RenewSystem(old.memsys, &g.cfg.Mem, n)
	for i := range g.cores {
		g.cores[i] = sm.Renew(g.cores[i], i, &g.cfg.Core, g.memsys, len(specs), g.onCTADone)
		g.cores[i].SetDrainHandler(g.onCTADrained)
		g.cores[i].SetWakeHandler(g.wakeCore)
	}
	g.cal.reset(n, cfg.Mem.Partitions)
	g.memsys.SetWaker(&g.cal)
	return g, nil
}

// wakeCore is the SMs' pre-mutation notification (AddCTA, and Preempt
// below), never called from inside an SM's tick. It stores the target core's
// lazily-accrued counters up to the current cycle boundary — callers invoke
// it *before* mutating the core, while the parked window is still provably
// quiet — then lowers the core's wake bound so the skipped SM is ticked again
// in time. Once the SM ticks of cycle g.now have run, the core either ticked
// this cycle or was parked through it, so the boundary is g.now+1, and the
// bound g.now makes it due at the next step. Waking an active core is a
// harmless no-op. (A memory wake mutates no core, so it lowers the bound
// alone: mem.Waker.)
func (g *GPU) wakeCore(coreID int, at uint64) {
	sync := at
	if g.postTick {
		sync = g.now + 1
	}
	g.cores[coreID].SyncTo(sync)
	g.cal.WakeCore(coreID, at)
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
// dispatch state, so RunContext polls the dispatcher on that cycle and the
// next (the next pending arrival is one of its bounds, so no admission cycle
// is ever skipped).
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
		g.dispAt = 0
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
	for i := 0; i < len(g.evicted); i++ { // index loop: see commitRetirements
		c, cta := g.evicted[i].core, g.evicted[i].cta
		g.evicted[i].cta = nil
		// An eviction changes dispatch state (capacity freed, requeue grown).
		g.dispAt = 0
		ks := g.kernels[cta.KernelIdx]
		ks.Requeue(cta.ID)
		if g.preemptObs != nil {
			g.preemptObs.OnCTAEvicted(g, c, cta)
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
// commits exactly what RunReference commits, skipping the work it proves
// empty (DESIGN.md, "Idle skipping"). Each step jumps to the earliest of the
// calendar's bounds and the loop's own — the dispatcher's, the next arrival,
// the epoch hook, the context poll and MaxCycles — and runs that cycle in
// RunReference's order, visiting only what is due:
//   - the dispatcher, when an arrival lands or dispAt has come;
//   - the due SMs, in index order. An SM's next bound is the earlier of its
//     own NextEvent and its response FIFO's next ready cycle; a parked SM
//     exports nothing, and a read of its counters settles them from its
//     stall certificates (CoreCounters);
//   - commitRetirements, then commitPreemptions;
//   - the due L2 partitions, in index order.
//
// Every bound is conservative, so results are bit-identical to RunReference;
// the golden determinism tests diff the two.
func (g *GPU) RunContext(ctx context.Context) (Result, error) {
	tickCore := func(i int) uint64 {
		c := g.cores[i]
		before := c.InstrIssued()
		c.Tick(g.now)
		g.engine.SMTicks++
		if c.InstrIssued() != before {
			// An SM that issued holds no stall certificate, so its bound would
			// be the next cycle anyway: skipping the probe saves it on every
			// issuing cycle (1 % of sim-issue host time).
			return g.now + 1
		}
		// The SM's own bound — the schedulers' stall certificates and the LDST
		// unit, a few words to read — covers pipeline and L1/LDST state; the
		// response pipe bound covers replies already in flight toward it
		// (later deliveries wake it through the calendar).
		return min(c.NextEvent(g.now+1), g.memsys.ResponseNextReady(i))
	}
	tickPartition := func(i int) uint64 {
		g.engine.PartitionTicks++
		return g.memsys.TickPartition(i, g.now)
	}
	live := ctx.Done() != nil
	for g.doneCount < len(g.kernels) {
		cy := g.nextStep(live)
		g.engine.CyclesFastForwarded += cy - g.now
		g.now = cy
		if cy >= g.cfg.MaxCycles {
			break
		}
		if live && cy%ctxCheckInterval == 0 && canceled(ctx) {
			return g.collect(), ctx.Err()
		}
		if g.epochFn != nil && cy%g.epochEvery == 0 {
			g.epochFn(cy)
		}
		polled := false
		if arrived := g.admitArrivals(); arrived || g.dispAt <= cy {
			placed := g.dispatchedCTAs()
			g.dispatcher.Tick(g)
			g.engine.DispatcherTicks++
			polled = true
			// Only the dispatcher's Tick and the commit callbacks place CTAs,
			// and a commit resets dispAt, so an unchanged count here is
			// "nothing placed".
			if arrived || g.dispatchedCTAs() != placed {
				g.dispAt = cy + 1
			} else {
				g.dispAt = g.dispatcher.NextDispatchEvent(cy + 1)
			}
		}
		smTicked := visitDue(g.cal.core, &g.cal.coreMin, cy, tickCore)
		g.postTick = true
		g.commitRetirements()
		g.commitPreemptions()
		partTicked := visitDue(g.cal.part, &g.cal.partMin, cy, tickPartition)
		g.postTick = false
		g.now = cy + 1
		switch {
		case polled || smTicked:
			g.engine.CyclesTicked++
			if !polled {
				g.engine.DispatcherSkips++
			}
		case partTicked:
			g.engine.CyclesBatched++
		default:
			g.engine.CyclesFastForwarded++
		}
	}
	return g.collect(), nil
}

// nextStep returns the cycle of RunContext's next step: the earliest of the
// calendar's bounds, dispAt, the next kernel arrival and MaxCycles, but never
// before g.now and never past an epoch-hook cycle or, when cancellation is
// armed (poll), a context-poll cycle — those run at the top of a step, so
// they must be stepped on. No SM tick, commit, dispatcher poll or partition
// tick can do anything on a cycle before it.
//
// A bound at or before the previous step's cycle — a wake raised after the
// SMs ticked, such as a placement from a commit callback, or a delivery at
// an XbarLatency of 0 — is served at g.now, the cycle after that step, the
// one a delivery at an XbarLatency of 1 names: an SM never ticks twice in
// one cycle, and never misses the next one.
func (g *GPU) nextStep(poll bool) uint64 {
	from := g.now
	next := min(g.cal.coreMin, g.cal.partMin, g.dispAt, g.cfg.MaxCycles)
	if next <= from {
		return from
	}
	if g.arrived < len(g.kernels) {
		next = min(next, g.kernels[g.arrived].Spec.Arrival) // admitted up to from-1
	}
	if g.epochFn != nil {
		next = clampToBoundary(next, from, g.epochEvery)
	}
	if poll {
		next = clampToBoundary(next, from, ctxCheckInterval)
	}
	return next
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
		l1 := c.L1Stats(g.now)
		r.L1.Add(&l1)
		sum, n := c.MemLatencyRaw()
		latSum += sum
		latN += n
	}
	r.InstrIssued = r.Core.InstrIssued
	r.ThreadInstr = r.Core.ThreadInstr
	r.IPC = stats.IPC(r.InstrIssued, r.Cycles)
	r.L2 = g.memsys.L2Stats(g.now)
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
