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
	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/stats"
	"gpusched/internal/trace"
	"gpusched/internal/workloads"
)

// WarpPolicy selects the per-SM warp scheduling discipline.
type WarpPolicy = sm.Policy

const (
	// WarpLRR is loose round-robin issue.
	WarpLRR = sm.PolicyLRR
	// WarpGTO is greedy-then-oldest issue (the LCS companion and the
	// usual high-performance baseline).
	WarpGTO = sm.PolicyGTO
	// WarpBAWS is the block-aware scheduler that advances a BCS gang's
	// CTAs in lockstep.
	WarpBAWS = sm.PolicyBAWS
	// WarpTwoLevel is a two-level round-robin scheduler: a small active
	// set issues LRR and memory-blocked warps are swapped out for
	// waiting ones.
	WarpTwoLevel = sm.PolicyTwoLevel
)

// ParseWarpPolicy parses a warp-scheduler name ("lrr", "gto", "baws",
// "two-level").
func ParseWarpPolicy(s string) (p WarpPolicy, err error) {
	err = p.UnmarshalText([]byte(s))
	return p, err
}

// ParseSize parses a problem-scale name ("tiny", "small", "full").
func ParseSize(s string) (Size, error) { return workloads.ParseScale(s) }

// Config selects the simulated GPU: NumCores, the per-SM pipeline in Core
// (Core.WarpPolicy is the warp scheduler on every SM), the memory
// hierarchy in Mem, and the MaxCycles bound. Start from DefaultConfig; see
// internal/sm and internal/mem for the semantics of each field.
type Config = gpu.Config

// DefaultConfig returns the paper's simulated GPU: 15 SMs, 2 warp
// schedulers each, GTO warp scheduling, 16KB L1s, 6 L2/DRAM partitions.
func DefaultConfig() Config { return gpu.DefaultConfig() }

// Scheduler is a CTA scheduling policy plus its parameters, from the
// internal/sim scheduler registry. Construct with Baseline, LCS,
// AdaptiveLCS, DynCTA, BCS, StaticLimit, Sequential, SpatialCKE, MixedCKE,
// Preemptive, or ParseScheduler; Name returns its short identifier.
type Scheduler = sim.SchedSpec

// SchedulerFlagHelp is the one-line grammar of ParseScheduler, for CLI flag
// help text.
const SchedulerFlagHelp = sim.SchedFlagHelp

// ParseScheduler parses the scheduler DSL ("lcs", "bcs:4", "static:3", ...)
// shared by every CLI tool. See internal/sim for the grammar.
func ParseScheduler(s string) (Scheduler, error) { return sim.ParseSched(s) }

// Baseline is occupancy-maximal round-robin CTA dispatch.
func Baseline() Scheduler { return sim.Baseline() }

// LCS is the paper's lazy CTA scheduling (pair with WarpGTO).
func LCS() Scheduler { return sim.LCS() }

// AdaptiveLCS is LCS plus the rate-guarded probing descent.
func AdaptiveLCS() Scheduler { return sim.AdaptiveLCS() }

// DynCTA is the prior-work feedback throttler (Kayiran et al. style) the
// paper's LCS is contrasted with.
func DynCTA() Scheduler { return sim.DynCTA() }

// BCS dispatches gangs of blockSize consecutive CTAs to one SM (pair with
// WarpBAWS for the paper's full mechanism).
func BCS(blockSize int) Scheduler { return sim.BCS(blockSize) }

// StaticLimit caps every SM at limit resident CTAs of the first kernel —
// the oracle-sweep building block.
func StaticLimit(limit int) Scheduler { return sim.Static(limit) }

// Sequential runs launched kernels one at a time (no CKE).
func Sequential() Scheduler { return sim.Sequential() }

// SpatialCKE splits the SMs evenly between two kernels.
func SpatialCKE() Scheduler { return sim.Spatial() }

// MixedCKE co-schedules two kernels on every SM, capping the first at
// limitA CTAs per core (normally an LCS/AdaptiveLCS decision).
func MixedCKE(limitA int) Scheduler { return sim.Mixed(limitA) }

// Preemptive drains batch CTAs at CTA boundaries to serve the
// latency-sensitive kernel 1. deadlineCycles > 0 makes preemption
// conditional: batch work is only evicted while the online runtime
// predictor says kernel 1 will miss that absolute deadline; 0 preempts
// eagerly.
func Preemptive(deadlineCycles int) Scheduler { return sim.Preemptive(deadlineCycles) }

// KernelStats describes one kernel's outcome: its name, launch and done
// cycles, instructions issued, CTA count, and drain-preemption evictions.
type KernelStats = stats.Kernel

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
	g, d, err := newGPU(cfg, sched, kernels)
	if err != nil {
		return Result{}, err
	}
	raw, err := g.RunContext(ctx)
	if err != nil {
		return Result{}, err
	}
	return resultFrom(raw, sched, d), nil
}

// newGPU builds the simulated device for kernels (in launch order) under a
// fresh dispatcher of sched.
func newGPU(cfg Config, sched Scheduler, kernels []Kernel) (*gpu.GPU, core.Dispatcher, error) {
	specs := make([]*kernel.Spec, len(kernels))
	for i, k := range kernels {
		specs[i] = k.spec
	}
	d := sched.NewDispatcher()
	g, err := gpu.New(cfg, d, specs...)
	return g, d, err
}

// resultFrom flattens the internal result record into the public one.
func resultFrom(raw gpu.Result, sched Scheduler, d core.Dispatcher) Result {
	res := Result{
		Cycles:         raw.Cycles,
		TimedOut:       raw.TimedOut,
		InstrIssued:    raw.InstrIssued,
		ThreadInstr:    raw.ThreadInstr,
		IPC:            raw.IPC,
		L1HitRate:      raw.L1.HitRate(),
		L1MergeRate:    raw.L1.MergeRate(),
		L2HitRate:      raw.L2.HitRate(),
		DRAMRowHitRate: raw.DRAM.RowHitRate(),
		AvgMemLatency:  raw.AvgMemLatency,
		AvgDRAMQueue:   raw.DRAM.AvgQueueLatency(),
		DRAMReads:      raw.DRAM.Reads,
		DRAMWrites:     raw.DRAM.Writes,
		Kernels:        raw.Kernels,
	}
	if limits, ok := sched.Limits(d); ok {
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
	g, d, err := newGPU(cfg, sched, kernels)
	if err != nil {
		return Result{}, nil, err
	}
	tl := trace.Attach(g, epoch)
	raw := g.Run()
	res := resultFrom(raw, sched, d)
	return res, tl, nil
}

// Size selects a workload's problem scale.
type Size = workloads.Scale

const (
	// SizeTiny is for smoke tests (sub-second on small configs).
	SizeTiny = workloads.ScaleTest
	// SizeSmall runs the full GPU for tens of milliseconds of simulated
	// time — the quick-experiment default.
	SizeSmall = workloads.ScaleSmall
	// SizeFull is the paper-experiment scale (several occupancy waves).
	SizeFull = workloads.ScaleFull
)

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
	return Kernel{spec: w.build(s)}
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
