package gpu

import (
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
			t.Errorf("%s issued %d instructions, baseline %d",
				d.Name(), r.InstrIssued, base.InstrIssued)
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
	if d.DecidedLimit(maxRes) < 1 {
		t.Fatal("DecidedLimit degenerate")
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

// TestGranuleInvariance is the package-level statement of the parking
// contract: the committed Result is a pure function of the request, whatever
// Config.Granule says (the harness golden tests restate this over every
// experiment and full Result rendering). Every parking threshold — from "park
// on any provable stall" to one far beyond any real stall — must commit the
// same Result as the default, with fast-forward on and off (without a
// fast-forward proof chain no SM is ever parked, so the granule must be inert
// there). DynCTA is used deliberately: its epoch adjustment reads per-core
// stall counters, so a missing sleeper sync would diverge here before
// anywhere else; stencil adds the memory-bound shape, where cores park and wake
// most while the crossbar they send into is contended.
func TestGranuleInvariance(t *testing.T) {
	for _, tc := range []struct {
		workload string
		build    func() core.Dispatcher
	}{
		{"spmv", func() core.Dispatcher { return core.NewDynCTA() }},
		{"spmv", func() core.Dispatcher { return core.NewRoundRobin() }},
		{"spmv", func() core.Dispatcher { return core.NewLCS() }},
		{"stencil", func() core.Dispatcher { return core.NewRoundRobin() }},
		{"stencil", func() core.Dispatcher { return core.NewLCS() }},
		{"stencil", func() core.Dispatcher { return core.NewBCS() }},
	} {
		w, _ := workloads.ByName(tc.workload)
		base := mustRun(t, testConfig(), tc.build(), w.Build(workloads.ScaleTest))
		for _, disableFF := range []bool{false, true} {
			for _, granule := range []uint64{1, 4, 16, 4096} {
				cfg := testConfig()
				cfg.Granule = granule
				cfg.DisableFastForward = disableFF
				r := mustRun(t, cfg, tc.build(), w.Build(workloads.ScaleTest))
				if !reflect.DeepEqual(r, base) {
					t.Errorf("%s/%s: Granule=%d DisableFastForward=%v diverged from the default:\n%+v\nvs\n%+v",
						tc.workload, tc.build().Name(), granule, disableFF, r, base)
				}
			}
		}
	}
}

// TestBatchWindowInvariance pins the quiet-window batch: the committed
// Result is a pure function of the request, whatever Config.BatchWindow says
// — 1 (batching off), 2, 0 (the default) and 64 (beyond the crossbar clamp) —
// against an unbatched baseline. Stencil is used deliberately: it is the
// memory-bound workload whose long all-cores-parked stretches the batch was
// built for, so a hook fired at the wrong cycle diverges here first. With
// fast-forward off batching is structurally off (it needs the sleep proofs),
// so the window must be inert there too.
func TestBatchWindowInvariance(t *testing.T) {
	w, _ := workloads.ByName("stencil")
	cfg := testConfig()
	cfg.BatchWindow = 1
	base := mustRun(t, cfg, core.NewLCS(), w.Build(workloads.ScaleTest))
	for _, disableFF := range []bool{false, true} {
		for _, window := range []uint64{1, 2, 0, 64} {
			cfg := testConfig()
			cfg.BatchWindow = window
			cfg.DisableFastForward = disableFF
			r := mustRun(t, cfg, core.NewLCS(), w.Build(workloads.ScaleTest))
			if !reflect.DeepEqual(r, base) {
				t.Errorf("BatchWindow=%d DisableFastForward=%v diverged from the unbatched baseline:\n%+v\nvs\n%+v",
					window, disableFF, r, base)
			}
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
			sb := wb.Build(workloads.ScaleTest)
			sb.Arrival = arrival
			return []*kernel.Spec{wa.Build(workloads.ScaleTest), sb}
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
// quiescence: skipping the dispatcher poll on cycles the FastForwarder
// certificate covers must be unobservable. Every case is compared against
// the reference loop (DisableFastForward ticks the dispatcher every cycle).
// The same runs pin the EngineStats identities: every simulated cycle is
// covered by exactly one mechanism, and every scheduler-cycle with resident
// warps got its verdict from exactly one of a warp walk or a stall certificate.
func TestDispatcherQuiescence(t *testing.T) {
	for _, tc := range quiescenceCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(disableFF bool) (Result, EngineStats) {
				cfg := testConfig()
				cfg.DisableFastForward = disableFF
				g, err := New(cfg, tc.build(), tc.specs()...)
				if err != nil {
					t.Fatal(err)
				}
				r := g.Run()
				if r.TimedOut {
					t.Fatalf("timed out at %d cycles", r.Cycles)
				}
				es := g.EngineStats()
				if sum := es.CyclesTicked + es.CyclesFastForwarded + es.CyclesBatched; sum != r.Cycles {
					t.Errorf("DisableFastForward=%v: ticked %d + fast-forwarded %d + batched %d = %d, simulated %d",
						disableFF, es.CyclesTicked, es.CyclesFastForwarded, es.CyclesBatched, sum, r.Cycles)
				}
				if got, want := es.IssueWalks+es.IssueServed, r.Core.InstrIssued+r.Core.IssueStallCycles; got != want {
					t.Errorf("DisableFastForward=%v: %d walks + %d served = %d, want %d scheduler-cycles (issued %d + stalled %d)",
						disableFF, es.IssueWalks, es.IssueServed, got, want, r.Core.InstrIssued, r.Core.IssueStallCycles)
				}
				return r, es
			}
			ref, refStats := run(true)
			if refStats.DispatcherSkips != 0 || refStats.DispatcherTicks != ref.Cycles {
				t.Errorf("reference loop must tick the dispatcher every cycle: %d ticks, %d skips, %d cycles",
					refStats.DispatcherTicks, refStats.DispatcherSkips, ref.Cycles)
			}
			r, es := run(false)
			if !reflect.DeepEqual(r, ref) {
				t.Errorf("diverged from the DisableFastForward reference:\n%+v\nvs\n%+v", r, ref)
			}
			if es.DispatcherSkips == 0 {
				t.Error("the dispatcher was never skipped")
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
