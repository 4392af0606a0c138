package gpu

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/kernel"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// testConfig shrinks the GPU so ScaleTest workloads finish in milliseconds.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumCores = 4
	cfg.MaxCycles = 3_000_000
	return cfg
}

func mustRun(t *testing.T, cfg Config, d core.Dispatcher, specs ...*kernel.Spec) Result {
	t.Helper()
	g, err := New(cfg, d, specs...)
	if err != nil {
		t.Fatal(err)
	}
	r := g.Run()
	if r.TimedOut {
		t.Fatalf("simulation timed out at %d cycles", r.Cycles)
	}
	return r
}

func TestEveryWorkloadCompletes(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			spec := w.Build(workloads.ScaleTest)
			r := mustRun(t, testConfig(), core.NewRoundRobin(), spec)
			if int(r.Core.CTAsCompleted) != spec.NumCTAs() {
				t.Fatalf("completed %d CTAs, want %d", r.Core.CTAsCompleted, spec.NumCTAs())
			}
			if r.IPC <= 0 {
				t.Fatal("zero IPC")
			}
			if r.Kernels[0].DoneCycle == 0 {
				t.Fatal("kernel completion not stamped")
			}
		})
	}
}

func TestInstructionCountInvariantAcrossDispatchers(t *testing.T) {
	// CTA scheduling changes *when/where* CTAs run, never *what* they
	// execute: total issued instructions must match exactly.
	spec := func() *kernel.Spec {
		w, _ := workloads.ByName("stencil")
		return w.Build(workloads.ScaleTest)
	}
	base := mustRun(t, testConfig(), core.NewRoundRobin(), spec())
	for _, d := range []core.Dispatcher{core.NewLCS(), core.NewBCS(), core.NewSequential()} {
		r := mustRun(t, testConfig(), d, spec())
		if r.InstrIssued != base.InstrIssued {
			t.Errorf("%T issued %d instructions, baseline %d",
				d, r.InstrIssued, base.InstrIssued)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	w, _ := workloads.ByName("spmv")
	r1 := mustRun(t, testConfig(), core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	r2 := mustRun(t, testConfig(), core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	if r1.Cycles != r2.Cycles || r1.InstrIssued != r2.InstrIssued ||
		r1.L1 != r2.L1 || r1.DRAM != r2.DRAM {
		t.Fatalf("replay diverged: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

func TestWarpPolicyAffectsButPreservesWork(t *testing.T) {
	w, _ := workloads.ByName("stencil")
	run := func(p sm.Policy) Result {
		cfg := testConfig()
		cfg.Core.WarpPolicy = p
		return mustRun(t, cfg, core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	}
	lrr := run(sm.PolicyLRR)
	gto := run(sm.PolicyGTO)
	if lrr.InstrIssued != gto.InstrIssued {
		t.Fatalf("warp policy changed instruction count: %d vs %d",
			lrr.InstrIssued, gto.InstrIssued)
	}
}

func TestSequentialSerializesKernels(t *testing.T) {
	a, _ := workloads.ByName("vadd")
	b, _ := workloads.ByName("kmeans")
	r := mustRun(t, testConfig(), core.NewSequential(),
		a.Build(workloads.ScaleTest), b.Build(workloads.ScaleTest))
	k0, k1 := r.Kernels[0], r.Kernels[1]
	if k1.LaunchCycle < k0.DoneCycle {
		t.Fatalf("kernel 1 launched at %d before kernel 0 finished at %d",
			k1.LaunchCycle, k0.DoneCycle)
	}
}

func TestSpatialRunsKernelsConcurrently(t *testing.T) {
	a, _ := workloads.ByName("vadd")
	b, _ := workloads.ByName("kmeans")
	r := mustRun(t, testConfig(), core.NewSpatial(),
		a.Build(workloads.ScaleTest), b.Build(workloads.ScaleTest))
	k0, k1 := r.Kernels[0], r.Kernels[1]
	if k1.LaunchCycle >= k0.DoneCycle {
		t.Fatalf("spatial CKE did not overlap kernels: k1 launch %d, k0 done %d",
			k1.LaunchCycle, k0.DoneCycle)
	}
}

func TestMixedCoResidency(t *testing.T) {
	a, _ := workloads.ByName("spmv")
	b, _ := workloads.ByName("blackscholes")
	cfg := testConfig()
	d := core.NewMixed(2)
	g, err := New(cfg, d, a.Build(workloads.ScaleTest), b.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	// Probe co-residency on every CTA completion.
	coResident := false
	overLimit := false
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		c := g.Core(coreID)
		if c.ResidentOf(0) > 0 && c.ResidentOf(1) > 0 {
			coResident = true
		}
		if c.ResidentOf(0) > 2 {
			overLimit = true
		}
	})
	r := g.Run()
	if r.TimedOut {
		t.Fatal("timed out")
	}
	if !coResident {
		t.Fatal("mixed CKE never co-located both kernels on one SM")
	}
	if overLimit {
		t.Fatal("mixed CKE exceeded kernel-0 limit")
	}
}

func TestLCSDecidesLimits(t *testing.T) {
	w, _ := workloads.ByName("spmv")
	cfg := testConfig()
	d := core.NewLCS()
	spec := w.Build(workloads.ScaleTest)
	g, err := New(cfg, d, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	maxRes, _ := cfg.Core.Limits.MaxResident(spec)
	decidedAny := false
	for coreID, lim := range d.Limits() {
		if lim == 0 {
			continue
		}
		decidedAny = true
		if lim < 1 || lim > maxRes {
			t.Errorf("core %d limit %d outside [1,%d]", coreID, lim, maxRes)
		}
	}
	if !decidedAny {
		t.Fatal("LCS never decided a limit")
	}
}

func TestBCSPairsConsecutiveCTAs(t *testing.T) {
	w, _ := workloads.ByName("stencil")
	cfg := testConfig()
	d := core.NewBCS()
	g, err := New(cfg, d, w.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	// Record which core each CTA ran on.
	coreOf := map[int]int{}
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		coreOf[cta.ID] = coreID
	})
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	paired := 0
	total := 0
	for id, c := range coreOf {
		if id%2 == 0 {
			total++
			if c2, ok := coreOf[id+1]; ok && c2 == c {
				paired++
			}
		}
	}
	if total == 0 {
		t.Fatal("no CTAs observed")
	}
	if frac := float64(paired) / float64(total); frac < 0.9 {
		t.Fatalf("only %.0f%% of consecutive pairs co-located under BCS", frac*100)
	}
}

func TestRoundRobinSpreadsCTAs(t *testing.T) {
	w, _ := workloads.ByName("vadd")
	cfg := testConfig()
	g, err := New(cfg, core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cfg.NumCores)
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		counts[coreID]++
	})
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	for i, n := range counts {
		if n == 0 {
			t.Errorf("core %d received no CTAs", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	w, _ := workloads.ByName("vadd")
	spec := w.Build(workloads.ScaleTest)
	if _, err := New(Config{NumCores: 0}, core.NewRoundRobin(), spec); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New(testConfig(), core.NewRoundRobin()); err == nil {
		t.Error("no kernels accepted")
	}
	big := *spec
	big.SharedMemPerCTA = 1 << 20
	if _, err := New(testConfig(), core.NewRoundRobin(), &big); err == nil {
		t.Error("unfittable kernel accepted")
	}
	bad := *spec
	bad.Block = kernel.Dim3{X: 33}
	if _, err := New(testConfig(), core.NewRoundRobin(), &bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestSchedulerWidthGuard: an SM spreads its warps evenly over its warp
// schedulers, and one scheduler's warp sets are 64 bits wide, so New rejects
// limits that could put more than 64 warps on one scheduler.
func TestSchedulerWidthGuard(t *testing.T) {
	w, _ := workloads.ByName("vadd")
	spec := w.Build(workloads.ScaleTest)
	for _, tc := range []struct {
		schedulers, maxWarps int
		ok                   bool
	}{
		{2, 48, true}, // the default: 24 per scheduler
		{1, 48, true},
		{1, 64, true},
		{2, 128, true},
		{1, 65, false},
		{2, 129, false}, // 65 on one of them
		{0, 48, false},
	} {
		cfg := testConfig()
		cfg.Core.NumSchedulers = tc.schedulers
		cfg.Core.Limits.MaxWarps = tc.maxWarps
		_, err := New(cfg, core.NewRoundRobin(), spec)
		if (err == nil) != tc.ok {
			t.Errorf("%d schedulers, MaxWarps %d: err = %v, want accepted = %v", tc.schedulers, tc.maxWarps, err, tc.ok)
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	w, _ := workloads.ByName("hotspot")
	spec := w.Build(workloads.ScaleTest)
	r := mustRun(t, testConfig(), core.NewRoundRobin(), spec)
	if r.L1.Accesses != r.L1.Hits+r.L1.Misses {
		t.Errorf("L1 accesses %d != hits %d + misses %d", r.L1.Accesses, r.L1.Hits, r.L1.Misses)
	}
	if r.L2.Accesses != r.L2.Hits+r.L2.Misses {
		t.Errorf("L2 accesses %d != hits %d + misses %d", r.L2.Accesses, r.L2.Hits, r.L2.Misses)
	}
	if r.Kernels[0].InstrIssued != r.InstrIssued {
		t.Errorf("kernel issue bucket %d != total %d", r.Kernels[0].InstrIssued, r.InstrIssued)
	}
	if r.ThreadInstr < r.InstrIssued {
		t.Errorf("thread instrs %d < warp instrs %d", r.ThreadInstr, r.InstrIssued)
	}
	// Memory-touching kernel must show DRAM traffic.
	if r.DRAM.Reads == 0 {
		t.Error("no DRAM reads for a memory workload")
	}
	if r.AvgMemLatency <= 0 {
		t.Error("no memory latency recorded")
	}
}

func TestTimeoutReported(t *testing.T) {
	w, _ := workloads.ByName("sgemm")
	cfg := testConfig()
	cfg.MaxCycles = 100 // absurdly short
	g, err := New(cfg, core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	if r := g.Run(); !r.TimedOut {
		t.Fatal("100-cycle budget did not time out")
	}
}

// loop is one of the two cycle loops, as a method expression:
// (*GPU).RunContext or (*GPU).RunReference.
type loop func(*GPU, context.Context) (Result, error)

// runToEnd runs g on loop with no cancellation, like Run.
func runToEnd(g *GPU, loop loop) Result {
	r, _ := loop(g, context.Background())
	return r
}

// runFFAndReference runs specs through run twice under fresh dispatchers —
// on RunContext and on RunReference — and fails unless both commit the same
// Result.
func runFFAndReference(t *testing.T, cfg Config, build func() core.Dispatcher, specs func() []*kernel.Spec, run func(*GPU, loop) Result) Result {
	t.Helper()
	var results [2]Result
	for i, loop := range []loop{(*GPU).RunContext, (*GPU).RunReference} {
		g, err := New(cfg, build(), specs()...)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = run(g, loop)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("diverged from RunReference:\n%+v\nvs\n%+v", results[0], results[1])
	}
	return results[0]
}

func roundRobin() core.Dispatcher { return core.NewRoundRobin() }

// TestRunContextLiveContext pins the calendar's context-poll bound. A live
// context arms the poll every ctxCheckInterval cycles, so the loop must step
// on each poll cycle: a run that is never canceled must equal Run (no poll at
// all) and the reference. That alone cannot see a skipped poll — it changes
// nothing when no cancel is pending — so a second run cancels at the first
// CTA retirement, a short chase finishing while a long one still waits on
// DRAM: it must stop exactly at the next poll cycle, with the same partial
// Result as the reference loop canceled at the same retirement.
func TestRunContextLiveContext(t *testing.T) {
	chases := func() []*kernel.Spec {
		return []*kernel.Spec{workloads.ChaseSpec(1, 1, 8), workloads.ChaseSpec(1, 1, 256)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live := runFFAndReference(t, testConfig(), roundRobin, chases, func(g *GPU, loop loop) Result {
		r, err := loop(g, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
	if plain := mustRun(t, testConfig(), roundRobin(), chases()...); !reflect.DeepEqual(live, plain) {
		t.Errorf("live context diverged from Run:\n%+v\nvs\n%+v", live, plain)
	}
	if live.Cycles < 2*ctxCheckInterval {
		t.Fatalf("run of %d cycles spans too few poll cycles to test the clamp", live.Cycles)
	}
	r := runFFAndReference(t, testConfig(), roundRobin, chases, func(g *GPU, loop loop) Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		g.SetObserver(func(int, *sm.CTA, uint64) { cancel() })
		r, err := loop(g, ctx)
		if err == nil {
			t.Errorf("run finished at %d cycles despite the cancel", r.Cycles)
		}
		return r
	})
	if r.Cycles%ctxCheckInterval != 0 {
		t.Errorf("canceled run stopped at cycle %d, not a poll cycle", r.Cycles)
	}
}

// TestAdvanceStopsInsideParkedWait pins the calendar's other bounds, each on
// a pointer chase whose event lands while the resident warps wait on DRAM
// and every SM is parked. The event's cycle must be stepped on rather than
// jumped over: a second kernel's arrival (admission, then placement on an
// idle SM), the MaxCycles cap (the run stops exactly there), and a
// dispatcher's time-driven event (DynCTA's epoch controller, at an epoch
// that lands between DRAM responses).
func TestAdvanceStopsInsideParkedWait(t *testing.T) {
	const arrival = 1237
	t.Run("arrival", func(t *testing.T) {
		r := runFFAndReference(t, testConfig(), roundRobin, func() []*kernel.Spec {
			late := workloads.ChaseSpec(1, 1, 4)
			late.Arrival = arrival
			return []*kernel.Spec{workloads.ChaseSpec(1, 1, 16), late}
		}, runToEnd)
		if got := r.Kernels[1].LaunchCycle; got != arrival {
			t.Errorf("late kernel launched at %d, want its arrival cycle %d", got, arrival)
		}
	})
	t.Run("max-cycles", func(t *testing.T) {
		cfg := testConfig()
		cfg.MaxCycles = arrival
		r := runFFAndReference(t, cfg, roundRobin, func() []*kernel.Spec {
			return []*kernel.Spec{workloads.ChaseSpec(1, 1, 64)}
		}, runToEnd)
		if !r.TimedOut || r.Cycles != arrival {
			t.Errorf("run stopped at %d cycles (timed out: %v), want the %d-cycle cap", r.Cycles, r.TimedOut, arrival)
		}
	})
	t.Run("dispatcher-epoch", func(t *testing.T) {
		runFFAndReference(t, testConfig(), func() core.Dispatcher {
			d := core.NewDynCTA()
			d.EpochCycles = 333
			return d
		}, func() []*kernel.Spec {
			return []*kernel.Spec{workloads.ChaseSpec(128, 1, 8)}
		}, runToEnd)
	})
}

// TestGranuleInvariance is the package-level statement of the parking
// contract. The name is kept from the parking-threshold sweep it replaces:
// with one rule left (park on any stall bound beyond the next cycle), what
// still moves which SMs park, and how often every SM is parked at once and
// the calendar jumps, is how many SMs there are. Each case on 1, 4 and 15
// SMs must commit the same Result as the reference loop, which never parks.
// DynCTA is used deliberately: its epoch adjustment reads per-core stall
// counters, so a missing sleeper sync would diverge here before anywhere
// else; stencil adds the memory-bound shape, where cores park and wake most
// while the crossbar they send into is contended.
func TestGranuleInvariance(t *testing.T) {
	for _, tc := range []struct {
		workload, sched string
		build           func() core.Dispatcher
	}{
		{"spmv", "dyncta", func() core.Dispatcher { return core.NewDynCTA() }},
		{"spmv", "rr", func() core.Dispatcher { return core.NewRoundRobin() }},
		{"spmv", "lcs", func() core.Dispatcher { return core.NewLCS() }},
		{"stencil", "rr", func() core.Dispatcher { return core.NewRoundRobin() }},
		{"stencil", "lcs", func() core.Dispatcher { return core.NewLCS() }},
		{"stencil", "bcs", func() core.Dispatcher { return core.NewBCS() }},
	} {
		w, _ := workloads.ByName(tc.workload)
		specs := func() []*kernel.Spec { return []*kernel.Spec{w.Build(workloads.ScaleTest)} }
		for _, cores := range []int{1, 4, 15} {
			cfg := testConfig()
			cfg.NumCores = cores
			t.Run(fmt.Sprintf("%s/%s/%d-sm", tc.workload, tc.sched, cores), func(t *testing.T) {
				runFFAndReference(t, cfg, tc.build, specs, runToEnd)
			})
		}
	}
}

// TestBatchWindowInvariance pins the memory wakes across crossbar latencies.
// The name is kept from the memory-only windows the calendar replaced, whose
// length was the crossbar latency. Stencil under LCS — the memory-bound
// workload with long all-parked stretches, so a delivery that wakes its SM
// at the wrong cycle diverges here first — must commit the reference loop's
// Result at every latency: 1 (a delivery poppable on the next cycle), 2, the
// default and 64. Each default-loop run must also have stepped on a cycle
// that ticked L2 partitions alone, or those steps went untested.
func TestBatchWindowInvariance(t *testing.T) {
	w, _ := workloads.ByName("stencil")
	for _, latency := range []uint64{1, 2, DefaultConfig().Mem.XbarLatency, 64} {
		cfg := testConfig()
		cfg.Mem.XbarLatency = latency
		var batched uint64
		runFFAndReference(t, cfg, func() core.Dispatcher { return core.NewLCS() },
			func() []*kernel.Spec { return []*kernel.Spec{w.Build(workloads.ScaleTest)} },
			func(g *GPU, loop loop) Result {
				r := runToEnd(g, loop)
				batched += g.EngineStats().CyclesBatched // RunReference never batches
				return r
			})
		if batched == 0 {
			t.Errorf("XbarLatency=%d: no step ticked the L2 partitions alone", latency)
		}
	}
}

// quiescenceCase is one dispatcher on a launch that exercises it.
type quiescenceCase struct {
	name  string
	build func() core.Dispatcher
	specs func() []*kernel.Spec
}

// quiescenceCases is every dispatcher the sim registry can build:
// single-kernel policies on one workload, the concurrent-kernel policies on
// two, and the arrival-driven ones (mixed and preemptive) with the second
// kernel arriving mid-run.
func quiescenceCases() []quiescenceCase {
	one := func(name string) func() []*kernel.Spec {
		return func() []*kernel.Spec {
			w, _ := workloads.ByName(name)
			return []*kernel.Spec{w.Build(workloads.ScaleTest)}
		}
	}
	two := func(a, b string, arrival uint64) func() []*kernel.Spec {
		return func() []*kernel.Spec {
			wa, _ := workloads.ByName(a)
			wb, _ := workloads.ByName(b)
			sb := *wb.Build(workloads.ScaleTest)
			sb.Arrival = arrival
			return []*kernel.Spec{wa.Build(workloads.ScaleTest), &sb}
		}
	}
	return []quiescenceCase{
		{"baseline", func() core.Dispatcher { return core.NewRoundRobin() }, one("stencil")},
		{"static", func() core.Dispatcher { return core.NewLimited(2) }, one("spmv")},
		{"lcs", func() core.Dispatcher { return core.NewLCS() }, one("spmv")},
		{"adaptive", func() core.Dispatcher { return core.NewAdaptiveLCS() }, one("stencil")},
		{"dyncta", func() core.Dispatcher { return core.NewDynCTA() }, one("spmv")},
		{"bcs", func() core.Dispatcher { return core.NewBCS() }, one("stencil")},
		{"sequential", func() core.Dispatcher { return core.NewSequential() }, two("vadd", "kmeans", 0)},
		{"spatial", func() core.Dispatcher { return core.NewSpatial() }, two("vadd", "kmeans", 0)},
		{"mixed-arrival", func() core.Dispatcher { return core.NewMixed(2) }, two("spmv", "blackscholes", 3000)},
		{"preemptive-arrival", func() core.Dispatcher { return core.NewPreemptive(1, 0) }, two("spmv", "vadd", 3000)},
	}
}

// TestDispatcherQuiescence is the engine-level statement of dispatcher
// quiescence: skipping the dispatcher poll on cycles the NextDispatchEvent
// certificate covers must be unobservable. Every case is compared against
// RunReference, which ticks the dispatcher every cycle.
// The same runs pin the EngineStats identities: every simulated cycle is
// covered by exactly one mechanism, every ticked cycle polled or skipped the
// dispatcher, every scheduler-cycle with resident warps got its verdict
// from exactly one of a warp walk or a stall certificate, and the reference
// loop ticked every SM and every L2 partition on every cycle.
func TestDispatcherQuiescence(t *testing.T) {
	for _, tc := range quiescenceCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(name string, loop loop) (Result, EngineStats) {
				g, err := New(testConfig(), tc.build(), tc.specs()...)
				if err != nil {
					t.Fatal(err)
				}
				r := runToEnd(g, loop)
				if r.TimedOut {
					t.Fatalf("timed out at %d cycles", r.Cycles)
				}
				es := g.EngineStats()
				if sum := es.CyclesTicked + es.CyclesFastForwarded + es.CyclesBatched; sum != r.Cycles {
					t.Errorf("%s: ticked %d + fast-forwarded %d + batched %d = %d, simulated %d",
						name, es.CyclesTicked, es.CyclesFastForwarded, es.CyclesBatched, sum, r.Cycles)
				}
				if got, want := es.IssueWalks+es.IssueServed, r.Core.InstrIssued+r.Core.IssueStallCycles; got != want {
					t.Errorf("%s: %d walks + %d served = %d, want %d scheduler-cycles (issued %d + stalled %d)",
						name, es.IssueWalks, es.IssueServed, got, want, r.Core.InstrIssued, r.Core.IssueStallCycles)
				}
				if es.IssueEvals < r.Core.InstrIssued {
					t.Errorf("%s: %d readiness evaluations for %d issued instructions, each of which needed one",
						name, es.IssueEvals, r.Core.InstrIssued)
				}
				if es.DispatcherTicks+es.DispatcherSkips != es.CyclesTicked {
					t.Errorf("%s: %d dispatcher ticks + %d skips, want one per ticked cycle (%d)",
						name, es.DispatcherTicks, es.DispatcherSkips, es.CyclesTicked)
				}
				if most := r.Cycles * uint64(testConfig().Mem.Partitions); es.PartitionTicks == 0 || es.PartitionTicks > most {
					t.Errorf("%s: %d partition ticks, want 1..%d (cycles × partitions)", name, es.PartitionTicks, most)
				}
				if most := r.Cycles * uint64(testConfig().NumCores); es.SMTicks == 0 || es.SMTicks > most {
					t.Errorf("%s: %d SM ticks, want 1..%d (cycles × cores)", name, es.SMTicks, most)
				}
				return r, es
			}
			ref, refStats := run("RunReference", (*GPU).RunReference)
			if refStats.DispatcherSkips != 0 || refStats.DispatcherTicks != ref.Cycles {
				t.Errorf("reference loop must tick the dispatcher every cycle: %d ticks, %d skips, %d cycles",
					refStats.DispatcherTicks, refStats.DispatcherSkips, ref.Cycles)
			}
			if want := ref.Cycles * uint64(testConfig().NumCores); refStats.SMTicks != want {
				t.Errorf("reference loop must tick every SM every cycle: %d SM ticks, want %d", refStats.SMTicks, want)
			}
			r, es := run("RunContext", (*GPU).RunContext)
			if !reflect.DeepEqual(r, ref) {
				t.Errorf("diverged from RunReference:\n%+v\nvs\n%+v", r, ref)
			}
			if es.DispatcherSkips == 0 {
				t.Error("the dispatcher was never skipped")
			}
			if want := ref.Cycles * uint64(testConfig().Mem.Partitions); refStats.PartitionTicks != want {
				t.Errorf("reference loop must tick every partition every cycle: %d partition ticks, want %d", refStats.PartitionTicks, want)
			}
		})
	}
}

// TestEngineStatsDispatcherSkipsDominateWhenFull runs the shape the skip was
// built for: a machine that stays full of one-warp CTAs of dependent loads,
// where the dispatcher can act only when a CTA retires. Nearly every
// scheduler-cycle of that shape repeats the stall of the cycle before, so the
// stall certificates must serve most of them too.
func TestEngineStatsDispatcherSkipsDominateWhenFull(t *testing.T) {
	g, err := New(DefaultConfig(), core.NewRoundRobin(), workloads.ChaseSpec(480, 1, 16))
	if err != nil {
		t.Fatal(err)
	}
	r := g.Run()
	if r.TimedOut {
		t.Fatal("timed out")
	}
	es := g.EngineStats()
	if es.DispatcherSkips <= es.DispatcherTicks {
		t.Errorf("DispatcherSkips = %d, DispatcherTicks = %d: want skips to dominate on a full machine",
			es.DispatcherSkips, es.DispatcherTicks)
	}
	if got, want := es.IssueWalks+es.IssueServed, r.Core.InstrIssued+r.Core.IssueStallCycles; got != want {
		t.Errorf("%d walks + %d served = %d, want %d scheduler-cycles", es.IssueWalks, es.IssueServed, got, want)
	}
	if es.IssueServed <= es.IssueWalks {
		t.Errorf("IssueServed = %d, IssueWalks = %d: want certificate reads to dominate on dependent loads",
			es.IssueServed, es.IssueWalks)
	}
}
