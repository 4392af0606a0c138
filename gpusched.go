// Package gpusched is a cycle-level GPGPU simulator built to study thread
// block (CTA) scheduling, reproducing "Improving GPGPU resource utilization
// through alternative thread block scheduling" (Lee et al., HPCA 2014).
//
// The library simulates a Fermi-class GPU — SIMT cores with scoreboarded
// dual issue, pluggable warp schedulers, per-core L1s with MSHRs, a crossbar
// to banked L2 partitions, and GDDR channels with row-buffer state — and
// implements the paper's CTA scheduling policies on top:
//
//   - Baseline: occupancy-maximal round-robin CTA dispatch.
//   - LCS (lazy CTA scheduling): sample per-CTA issue counts under a greedy
//     warp scheduler, then lazily stop refilling CTA slots past the point
//     the issue histogram says the core can use.
//   - AdaptiveLCS: LCS plus a rate-guarded probing descent (extension).
//   - BCS (block CTA scheduling): dispatch consecutive CTAs as gangs to one
//     core, with the BAWS warp scheduler keeping the gang in lockstep so
//     shared data stays hot.
//   - Concurrent kernel execution: sequential, spatial (core partitioning),
//     and the paper's mixed intra-core co-scheduling.
//
// Quick start:
//
//	w, _ := gpusched.WorkloadByName("stencil")
//	res, err := gpusched.Run(gpusched.DefaultConfig(), gpusched.BCS(2), w.Kernel(gpusched.SizeSmall))
//	fmt.Println(res.IPC, res.Cycles)
package gpusched

import (
	"context"

	"gpusched/internal/core"
	"gpusched/internal/gpu"
	"gpusched/internal/kernel"
	"gpusched/internal/mem"
	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/stats"
	"gpusched/internal/trace"
	"gpusched/internal/workloads"
)

// WarpPolicy selects the per-SM warp scheduling discipline.
type WarpPolicy int

const (
	// WarpLRR is loose round-robin issue.
	WarpLRR WarpPolicy = iota
	// WarpGTO is greedy-then-oldest issue (the LCS companion and the
	// usual high-performance baseline).
	WarpGTO
	// WarpBAWS is the block-aware scheduler that advances a BCS gang's
	// CTAs in lockstep.
	WarpBAWS
	// WarpTwoLevel is a two-level round-robin scheduler: a small active
	// set issues LRR and memory-blocked warps are swapped out for
	// waiting ones.
	WarpTwoLevel
)

// String names the policy ("lrr", "gto", "baws", "two-level").
func (p WarpPolicy) String() string { return p.internal().String() }

func (p WarpPolicy) internal() sm.Policy {
	switch p {
	case WarpLRR:
		return sm.PolicyLRR
	case WarpBAWS:
		return sm.PolicyBAWS
	case WarpTwoLevel:
		return sm.PolicyTwoLevel
	default:
		return sm.PolicyGTO
	}
}

// ParseWarpPolicy parses a warp-scheduler name ("lrr", "gto", "baws",
// "two-level") via the shared internal/sim parser.
func ParseWarpPolicy(s string) (WarpPolicy, error) {
	p, err := sim.ParseWarpPolicy(s)
	if err != nil {
		return 0, err
	}
	switch p {
	case sm.PolicyLRR:
		return WarpLRR, nil
	case sm.PolicyBAWS:
		return WarpBAWS, nil
	case sm.PolicyTwoLevel:
		return WarpTwoLevel, nil
	default:
		return WarpGTO, nil
	}
}

// ParseSize parses a problem-scale name ("tiny", "small", "full") via the
// shared internal/sim parser.
func ParseSize(s string) (Size, error) {
	sc, err := sim.ParseScale(s)
	if err != nil {
		return 0, err
	}
	switch sc {
	case workloads.ScaleTest:
		return SizeTiny, nil
	case workloads.ScaleFull:
		return SizeFull, nil
	default:
		return SizeSmall, nil
	}
}

// Config selects the simulated GPU. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Cores is the SM count (default 15, GTX480-like).
	Cores int
	// WarpPolicy is the warp scheduler on every SM.
	WarpPolicy WarpPolicy
	// MaxCycles bounds the simulation (0 = the 20M-cycle default).
	MaxCycles uint64
	// Granule is the activity-set parking threshold in cycles: an SM leaves
	// the per-cycle tick only when it can prove at least this many quiet
	// cycles ahead (0 = the built-in default). It is an execution knob
	// only: results are byte-identical for every granule, so it never needs
	// to appear in result caches or comparisons.
	Granule uint64
	// BatchWindow caps the quiet-window cycle batch in cycles (0 = the
	// built-in default, 1 = batching off). Execution knob only, like
	// Granule: results are byte-identical for every window.
	BatchWindow uint64

	// Advanced knobs. Nil fields keep Fermi-class defaults.
	SM  *SMConfig
	Mem *MemConfig
}

// SMConfig exposes the per-SM pipeline parameters (see internal/sm for the
// semantics of each field). Obtain a mutable copy from DefaultSMConfig.
type SMConfig = sm.Config

// MemConfig exposes the memory-hierarchy parameters (see internal/mem).
// Obtain a mutable copy from DefaultMemConfig.
type MemConfig = mem.Config

// DefaultConfig returns the paper's simulated GPU: 15 SMs, 2 warp
// schedulers each, GTO warp scheduling, 16KB L1s, 6 L2/DRAM partitions.
func DefaultConfig() Config {
	return Config{Cores: 15, WarpPolicy: WarpGTO}
}

// DefaultSMConfig returns the default SM parameters for customization.
func DefaultSMConfig() SMConfig { return sm.DefaultConfig() }

// DefaultMemConfig returns the default memory parameters for customization.
func DefaultMemConfig() MemConfig { return mem.DefaultConfig() }

func (c Config) build() gpu.Config {
	g := gpu.DefaultConfig()
	if c.Cores > 0 {
		g.NumCores = c.Cores
	}
	if c.SM != nil {
		g.Core = *c.SM
	}
	if c.Mem != nil {
		g.Mem = *c.Mem
	}
	g.Core.WarpPolicy = c.WarpPolicy.internal()
	if c.MaxCycles > 0 {
		g.MaxCycles = c.MaxCycles
	}
	g.Granule = c.Granule
	g.BatchWindow = c.BatchWindow
	return g
}

// Scheduler is a CTA scheduling policy plus its parameters — a thin facade
// over the typed internal/sim scheduler registry. Construct with Baseline,
// LCS, AdaptiveLCS, DynCTA, BCS, StaticLimit, Sequential, SpatialCKE,
// MixedCKE, Preemptive, or ParseScheduler.
type Scheduler struct {
	spec sim.SchedSpec
}

// Name returns the policy's short identifier.
func (s Scheduler) Name() string { return s.spec.Name() }

// SchedulerFlagHelp is the one-line grammar of ParseScheduler, for CLI flag
// help text. It tracks the internal scheduler registry, so a new policy shows
// up in every tool's -sched help without editing each command.
const SchedulerFlagHelp = sim.SchedFlagHelp

// ParseScheduler parses the scheduler DSL ("lcs", "bcs:4", "static:3", ...)
// shared by every CLI tool. See internal/sim for the grammar.
func ParseScheduler(s string) (Scheduler, error) {
	spec, err := sim.ParseSched(s)
	if err != nil {
		return Scheduler{}, err
	}
	return Scheduler{spec: spec}, nil
}

// Baseline is occupancy-maximal round-robin CTA dispatch.
func Baseline() Scheduler { return Scheduler{spec: sim.Baseline()} }

// LCS is the paper's lazy CTA scheduling (pair with WarpGTO).
func LCS() Scheduler { return Scheduler{spec: sim.LCS()} }

// AdaptiveLCS is LCS plus the rate-guarded probing descent.
func AdaptiveLCS() Scheduler { return Scheduler{spec: sim.AdaptiveLCS()} }

// DynCTA is the prior-work feedback throttler (Kayiran et al. style) the
// paper's LCS is contrasted with.
func DynCTA() Scheduler { return Scheduler{spec: sim.DynCTA()} }

// BCS dispatches gangs of blockSize consecutive CTAs to one SM (pair with
// WarpBAWS for the paper's full mechanism).
func BCS(blockSize int) Scheduler { return Scheduler{spec: sim.BCS(blockSize)} }

// StaticLimit caps every SM at limit resident CTAs of the first kernel —
// the oracle-sweep building block.
func StaticLimit(limit int) Scheduler { return Scheduler{spec: sim.Static(limit)} }

// Sequential runs launched kernels one at a time (no CKE).
func Sequential() Scheduler { return Scheduler{spec: sim.Sequential()} }

// SpatialCKE partitions the SMs between two kernels (coresForFirst = 0
// means an even split).
func SpatialCKE(coresForFirst int) Scheduler { return Scheduler{spec: sim.Spatial(coresForFirst)} }

// MixedCKE co-schedules two kernels on every SM, capping the first at
// limitA CTAs per core (normally an LCS/AdaptiveLCS decision).
func MixedCKE(limitA int) Scheduler { return Scheduler{spec: sim.Mixed(limitA)} }

// Preemptive drains batch CTAs at CTA boundaries to serve the
// latency-sensitive kernel at launch-table index priorityKernel (0 selects
// the default, kernel 1). deadlineCycles > 0 makes preemption conditional:
// batch work is only evicted while the online runtime predictor says the
// priority kernel will miss that absolute deadline; 0 preempts eagerly.
func Preemptive(priorityKernel, deadlineCycles int) Scheduler {
	return Scheduler{spec: sim.Preemptive(priorityKernel, deadlineCycles)}
}

// KernelStats describes one kernel's outcome.
type KernelStats struct {
	Name        string
	LaunchCycle uint64
	DoneCycle   uint64
	InstrIssued uint64
	CTAs        int
	// Evicted counts drain-preemption evictions of the kernel's CTAs.
	Evicted int
}

// Result is the outcome of one simulation.
type Result struct {
	// Cycles is the simulated makespan; TimedOut marks aborted runs.
	Cycles   uint64
	TimedOut bool
	// InstrIssued counts warp instructions; ThreadInstr lane instructions.
	InstrIssued uint64
	ThreadInstr uint64
	// IPC is InstrIssued/Cycles across the whole GPU.
	IPC float64
	// L1HitRate, L1MergeRate, L2HitRate and DRAMRowHitRate summarize the
	// memory system (merge rate = misses folded into in-flight fills,
	// which is how BCS lockstep sharing appears).
	L1HitRate      float64
	L1MergeRate    float64
	L2HitRate      float64
	DRAMRowHitRate float64
	// AvgMemLatency is mean cycles from load issue to completion.
	AvgMemLatency float64
	// AvgDRAMQueue is mean cycles requests waited at the controllers.
	AvgDRAMQueue float64
	// DRAMReads/DRAMWrites count line transfers.
	DRAMReads  uint64
	DRAMWrites uint64
	// Kernels reports per-kernel outcomes in launch order.
	Kernels []KernelStats
	// CTALimits holds the per-core limit an LCS-family scheduler decided
	// (nil otherwise; 0 entries mean the core never finished sampling).
	CTALimits []int
}

// Speedup returns base.Cycles / r.Cycles.
func (r Result) Speedup(base Result) float64 {
	return stats.Speedup(base.Cycles, r.Cycles)
}

// Run simulates kernels (in launch order) under the scheduler and returns
// the result.
func Run(cfg Config, sched Scheduler, kernels ...Kernel) (Result, error) {
	return RunContext(context.Background(), cfg, sched, kernels...)
}

// RunContext is Run with cooperative cancellation: when ctx is canceled
// the cycle loop stops mid-flight and ctx's error is returned.
func RunContext(ctx context.Context, cfg Config, sched Scheduler, kernels ...Kernel) (Result, error) {
	res, _, err := RunEngineStats(ctx, cfg, sched, kernels...)
	return res, err
}

// EngineStats re-exports the cycle loop's execution accounting: how many
// simulated cycles were ticked, fast-forwarded and batched, how often the
// dispatcher was polled or provably skipped, and how many warp-scheduler
// verdicts took a walk or a stall-certificate read. It describes the host-side execution, not the
// simulated machine — it moves with the execution knobs while Result does
// not — so it is reported beside Result, never inside it.
type EngineStats = gpu.EngineStats

// RunEngineStats is RunContext plus the run's EngineStats.
func RunEngineStats(ctx context.Context, cfg Config, sched Scheduler, kernels ...Kernel) (Result, EngineStats, error) {
	specs := make([]*kernel.Spec, len(kernels))
	for i, k := range kernels {
		specs[i] = k.spec
	}
	d := sched.spec.NewDispatcher()
	g, err := gpu.New(cfg.build(), d, specs...)
	if err != nil {
		return Result{}, EngineStats{}, err
	}
	raw, err := g.RunContext(ctx)
	if err != nil {
		return Result{}, EngineStats{}, err
	}
	return resultFrom(raw, sched, d), g.EngineStats(), nil
}

// resultFrom converts the internal result record to the public one.
func resultFrom(raw gpu.Result, sched Scheduler, d core.Dispatcher) Result {
	res := Result{
		Cycles:         raw.Cycles,
		TimedOut:       raw.TimedOut,
		InstrIssued:    raw.InstrIssued,
		ThreadInstr:    raw.ThreadInstr,
		IPC:            raw.IPC,
		L1HitRate:      raw.L1.HitRate(),
		L2HitRate:      raw.L2.HitRate(),
		DRAMRowHitRate: raw.DRAM.RowHitRate(),
		AvgMemLatency:  raw.AvgMemLatency,
		AvgDRAMQueue:   raw.DRAM.AvgQueueLatency(),
		DRAMReads:      raw.DRAM.Reads,
		DRAMWrites:     raw.DRAM.Writes,
	}
	if raw.L1.Accesses > 0 {
		res.L1MergeRate = float64(raw.L1.MSHRMerges) / float64(raw.L1.Accesses)
	}
	for _, k := range raw.Kernels {
		res.Kernels = append(res.Kernels, KernelStats{
			Name:        k.Name,
			LaunchCycle: k.LaunchCycle,
			DoneCycle:   k.DoneCycle,
			InstrIssued: k.InstrIssued,
			CTAs:        k.CTAs,
			Evicted:     k.Evicted,
		})
	}
	if limits, ok := sched.spec.Limits(d); ok {
		res.CTALimits = append([]int(nil), limits...)
	}
	return res
}

// MustRun is Run, panicking on configuration errors (examples/benchmarks).
func MustRun(cfg Config, sched Scheduler, kernels ...Kernel) Result {
	r, err := Run(cfg, sched, kernels...)
	if err != nil {
		panic(err)
	}
	return r
}

// Timeline re-exports the execution-timeline tracer: per-epoch IPC,
// occupancy, and memory-system rates sampled during a run.
type Timeline = trace.Timeline

// TraceSample is one timeline epoch snapshot.
type TraceSample = trace.Sample

// RunTraced is Run plus a sampled timeline (epoch in cycles; 0 = 1024).
// Timelines make scheduling behaviour visible over time — the LCS throttle
// point, BCS gang waves, mixed-CKE phase changes.
func RunTraced(cfg Config, sched Scheduler, epoch uint64, kernels ...Kernel) (Result, *Timeline, error) {
	specs := make([]*kernel.Spec, len(kernels))
	for i, k := range kernels {
		specs[i] = k.spec
	}
	d := sched.spec.NewDispatcher()
	g, err := gpu.New(cfg.build(), d, specs...)
	if err != nil {
		return Result{}, nil, err
	}
	if epoch == 0 {
		epoch = 1024
	}
	tl := trace.Attach(g, epoch)
	raw := g.Run()
	res := resultFrom(raw, sched, d)
	return res, tl, nil
}

// Size selects a workload's problem scale.
type Size int

const (
	// SizeTiny is for smoke tests (sub-second on small configs).
	SizeTiny Size = iota
	// SizeSmall runs the full GPU for tens of milliseconds of simulated
	// time — the quick-experiment default.
	SizeSmall
	// SizeFull is the paper-experiment scale (several occupancy waves).
	SizeFull
)

func (s Size) internal() workloads.Scale {
	switch s {
	case SizeTiny:
		return workloads.ScaleTest
	case SizeFull:
		return workloads.ScaleFull
	default:
		return workloads.ScaleSmall
	}
}

// Kernel is one launchable kernel.
type Kernel struct {
	spec *kernel.Spec
}

// Name returns the kernel's name.
func (k Kernel) Name() string { return k.spec.Name }

// CTAs returns the grid size in thread blocks.
func (k Kernel) CTAs() int { return k.spec.NumCTAs() }

// ThreadsPerCTA returns the block size.
func (k Kernel) ThreadsPerCTA() int { return k.spec.ThreadsPerCTA() }

// Workload is a member of the built-in benchmark suite.
type Workload struct {
	// Name is the short identifier ("stencil", "spmv", ...).
	Name string
	// ModeledOn names the real benchmark the generator mimics.
	ModeledOn string
	// Class is the behaviour family ("compute", "stream", "cache",
	// "locality", "irregular", "sync").
	Class string
	// InterCTALocality marks BCS candidates.
	InterCTALocality bool

	build func(workloads.Scale) *kernel.Spec
}

// Kernel instantiates the workload at the given size.
func (w Workload) Kernel(s Size) Kernel {
	return Kernel{spec: w.build(s.internal())}
}

// Workloads returns the benchmark suite in report order.
func Workloads() []Workload {
	var out []Workload
	for _, w := range workloads.All() {
		out = append(out, wrapWorkload(w))
	}
	return out
}

// WorkloadByName finds a suite member.
func WorkloadByName(name string) (Workload, bool) {
	w, ok := workloads.ByName(name)
	if !ok {
		return Workload{}, false
	}
	return wrapWorkload(w), true
}

func wrapWorkload(w workloads.Workload) Workload {
	return Workload{
		Name:             w.Name,
		ModeledOn:        w.ModeledOn,
		Class:            string(w.Class),
		InterCTALocality: w.InterCTALocality,
		build:            w.Build,
	}
}
