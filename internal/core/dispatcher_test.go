package core_test

import (
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/gpu"
	"gpusched/internal/isa"
	"gpusched/internal/kernel"
	"gpusched/internal/sm"
)

// uniformKernel builds a kernel of ctas blocks x warps warps whose every
// warp runs `work` dependent FALUs then exits. regs tunes occupancy.
func uniformKernel(name string, ctas, warps, work, regs int) *kernel.Spec {
	b := isa.NewBuilder()
	for i := 0; i < work; i++ {
		b.FAlu(1, 1)
	}
	return &kernel.Spec{
		Name:          name,
		Grid:          ctas,
		Block:         warps * isa.WarpSize,
		RegsPerThread: regs,
		Program:       b.Exit().Build(),
	}
}

func testGPU(t *testing.T, d core.Dispatcher, policy sm.Policy, specs ...*kernel.Spec) *gpu.GPU {
	t.Helper()
	cfg := gpu.DefaultConfig()
	cfg.NumCores = 4
	cfg.MaxCycles = 5_000_000
	cfg.Core.WarpPolicy = policy
	g, err := gpu.New(cfg, d, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// capChecker wraps a throttling dispatcher and fails the test when a Tick
// places a kernel-0 CTA on a core that already held its limit. The limit is
// read when the Tick returns: every dispatcher finishes changing its limits
// (DynCTA's controller step) before it places, and the others change them
// only on completions.
type capChecker struct {
	core.Dispatcher
	t      *testing.T
	limit  func(coreID int) int // 0 = uncapped
	before []int
	capped int // Ticks that found a core at its limit with kernel 0 not yet exhausted
}

func (c *capChecker) Tick(m core.Machine) {
	c.before = c.before[:0]
	for i := 0; i < m.NumCores(); i++ {
		c.before = append(c.before, m.Core(i).ResidentOf(0))
	}
	exhausted := m.Kernels()[0].Exhausted()
	c.Dispatcher.Tick(m)
	for i, n := range c.before {
		if lim := c.limit(i); lim > 0 && n >= lim {
			if !exhausted {
				c.capped++
			}
			if got := m.Core(i).ResidentOf(0); got > n {
				c.t.Fatalf("cycle %d: core %d went from %d to %d kernel-0 CTAs past its limit %d", m.Now(), i, n, got, lim)
			}
		}
	}
}

// TestLimitedNeverExceedsCap holds the one placement rule for every
// throttling dispatcher that places through it.
func TestLimitedNeverExceedsCap(t *testing.T) {
	limitsOf := func(limits func() []int) func(int) int {
		return func(i int) int {
			if l := limits(); i < len(l) {
				return l[i]
			}
			return 0
		}
	}
	lcs, adaptive, dyn := core.NewLCS(), core.NewAdaptiveLCS(), core.NewDynCTA()
	dyn.EpochCycles = 256 // several controller steps in a short run
	cases := []struct {
		name  string
		d     core.Dispatcher
		limit func(int) int
		spec  *kernel.Spec
	}{
		{"static:3", core.NewLimited(3), func(int) int { return 3 }, uniformKernel("k", 64, 2, 50, 16)},
		{"lcs", lcs, limitsOf(lcs.Limits), uniformKernel("k", 96, 8, 200, 8)},
		{"lcs-adaptive", adaptive, limitsOf(adaptive.Limits), uniformKernel("k", 96, 8, 200, 8)},
		{"dyncta", dyn, limitsOf(dyn.Limits), memBoundKernel(96)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &capChecker{Dispatcher: tc.d, t: t, limit: tc.limit}
			if r := testGPU(t, c, sm.PolicyGTO, tc.spec).Run(); r.TimedOut {
				t.Fatal("timed out")
			}
			if c.capped == 0 {
				t.Fatal("no core ever reached its limit: the cap was never exercised")
			}
		})
	}
}

func TestLimitedZeroMeansUnlimited(t *testing.T) {
	spec := uniformKernel("k", 64, 2, 50, 16)
	g := testGPU(t, core.NewLimited(0), sm.PolicyGTO, spec)
	maxSeen := 0
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		if n := g.Core(coreID).ResidentOf(0) + 1; n > maxSeen {
			maxSeen = n
		}
	})
	g.Run()
	if maxSeen < 8 {
		t.Fatalf("Limited(0) reached only %d resident CTAs, want occupancy max 8", maxSeen)
	}
}

func TestLCSComputeBoundThrottlesHard(t *testing.T) {
	// Pure dependent-ALU kernel: under GTO a couple of CTAs saturate
	// issue, so younger CTAs barely run and the ratio decision must be
	// well below the occupancy maximum (8 with these resources).
	spec := uniformKernel("k", 96, 8, 200, 8)
	d := core.NewLCS()
	g := testGPU(t, d, sm.PolicyGTO, spec)
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	decided := 0
	sum := 0
	for _, lim := range d.Limits() {
		if lim > 0 {
			decided++
			sum += lim
		}
	}
	if decided == 0 {
		t.Fatal("no LCS decisions")
	}
	if avg := float64(sum) / float64(decided); avg > 5 {
		t.Errorf("compute-bound kernel throttled to %.1f CTAs on average, want < 5", avg)
	}
}

func TestAdaptiveLCSLimitsInRange(t *testing.T) {
	spec := uniformKernel("k", 96, 4, 150, 16)
	d := core.NewAdaptiveLCS()
	g := testGPU(t, d, sm.PolicyGTO, spec)
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	any := false
	for coreID, lim := range d.Limits() {
		if lim == 0 {
			continue
		}
		any = true
		if lim < 1 || lim > 8 {
			t.Errorf("core %d adaptive limit %d out of range", coreID, lim)
		}
	}
	if !any {
		t.Fatal("adaptive LCS never decided")
	}
}

func TestBCSTailAndOddGangs(t *testing.T) {
	// 65 CTAs with gang width 3: the tail gang has 2 CTAs; everything
	// must still complete exactly once.
	spec := uniformKernel("k", 65, 2, 40, 16)
	d := core.NewBCS()
	d.BlockSize = 3
	g := testGPU(t, d, sm.PolicyGTO, spec)
	seen := map[int]bool{}
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		if seen[cta.ID] {
			t.Errorf("CTA %d completed twice", cta.ID)
		}
		seen[cta.ID] = true
	})
	r := g.Run()
	if r.TimedOut {
		t.Fatal("timed out")
	}
	if len(seen) != 65 {
		t.Fatalf("completed %d CTAs, want 65", len(seen))
	}
}

func TestBCSFillsOddRemainderSlot(t *testing.T) {
	// 512-thread CTAs: occupancy max = 3 (thread-bound). Gangs of 2 leave
	// one remainder slot that the filler logic must use.
	spec := uniformKernel("k", 60, 16, 60, 8)
	d := core.NewBCS()
	g := testGPU(t, d, sm.PolicyGTO, spec)
	maxResident := 0
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		if n := g.Core(coreID).ResidentOf(0) + 1; n > maxResident {
			maxResident = n
		}
	})
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	if maxResident < 3 {
		t.Fatalf("odd remainder slot never filled: max resident %d, want 3", maxResident)
	}
}

func TestBCSGangsShareCores(t *testing.T) {
	spec := uniformKernel("k", 64, 2, 60, 16)
	d := core.NewBCS()
	g := testGPU(t, d, sm.PolicyGTO, spec)
	coreOf := map[int]int{}
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		coreOf[cta.ID] = coreID
	})
	g.Run()
	broken := 0
	for id := 0; id < 64; id += 2 {
		if coreOf[id] != coreOf[id+1] {
			broken++
		}
	}
	if broken > 3 {
		t.Fatalf("%d of 32 BCS pairs split across cores", broken)
	}
}

// TestSpatialRespectsPartition: the even split gives kernel 0 the first
// half of the cores and kernel 1 the rest.
func TestSpatialRespectsPartition(t *testing.T) {
	a := uniformKernel("a", 40, 2, 60, 16)
	b := uniformKernel("b", 40, 2, 60, 16)
	g := testGPU(t, core.NewSpatial(), sm.PolicyGTO, a, b)
	half := g.NumCores() / 2
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		if (coreID < half) != (cta.KernelIdx == 0) {
			t.Errorf("kernel %d CTA on core %d; kernel 0 owns cores 0-%d", cta.KernelIdx, coreID, half-1)
		}
	})
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
}

func TestSequentialThreeKernels(t *testing.T) {
	specs := []*kernel.Spec{
		uniformKernel("a", 16, 2, 40, 16),
		uniformKernel("b", 16, 2, 40, 16),
		uniformKernel("c", 16, 2, 40, 16),
	}
	g := testGPU(t, core.NewSequential(), sm.PolicyGTO, specs...)
	r := g.Run()
	if r.TimedOut {
		t.Fatal("timed out")
	}
	ks := g.Kernels()
	for i := 1; i < len(ks); i++ {
		if ks[i].LaunchCycle < ks[i-1].DoneCycle {
			t.Errorf("kernel %d launched at %d before kernel %d finished at %d",
				i, ks[i].LaunchCycle, i-1, ks[i-1].DoneCycle)
		}
	}
}

func TestMixedPrioritizesKernelZeroRefills(t *testing.T) {
	a := uniformKernel("a", 60, 2, 80, 16)
	b := uniformKernel("b", 60, 2, 80, 16)
	d := core.NewMixed(2)
	g := testGPU(t, d, sm.PolicyGTO, a, b)
	over := false
	g.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		if g.Core(coreID).ResidentOf(0) > 2 {
			over = true
		}
	})
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	if over {
		t.Fatal("mixed CKE exceeded kernel-0 cap")
	}
}

// memBoundKernel builds a kernel whose warps spend almost all time waiting
// on scattered loads (high issue-stall fraction).
func memBoundKernel(ctas int) *kernel.Spec {
	var progs []isa.Program
	for gw := 0; gw < ctas*2; gw++ {
		b := isa.NewBuilder()
		for i := 0; i < 12; i++ {
			b.LoadGlobalStride(1, uint32(gw*1<<16+i*4096), 512)
			b.FAlu(2, 1)
		}
		progs = append(progs, b.Exit().Build())
	}
	return &kernel.Spec{
		Name:          "membound",
		Grid:          ctas,
		Block:         64,
		RegsPerThread: 16,
		Program:       isa.NewPerWarp(2, progs),
	}
}

func TestDynCTAThrottlesMemoryBound(t *testing.T) {
	d := core.NewDynCTA()
	g := testGPU(t, d, sm.PolicyGTO, memBoundKernel(96))
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	throttled := false
	for _, lim := range d.Limits() {
		if lim < 1 && lim != 0 {
			t.Fatalf("limit %d below floor", lim)
		}
		if lim > 8 {
			t.Fatalf("limit %d above occupancy", lim)
		}
		if lim > 0 && lim < 8 {
			throttled = true
		}
	}
	if !throttled {
		t.Fatal("DynCTA never reduced any core's allowance on a stall-heavy kernel")
	}
}

func TestDynCTALeavesComputeBoundAlone(t *testing.T) {
	// A kernel with abundant independent ALU work keeps issue slots busy;
	// DynCTA must not throttle it to the floor.
	b := isa.NewBuilder()
	for i := 0; i < 120; i++ {
		b.IAlu(isa.Reg(1+i%8), 0)
	}
	spec := &kernel.Spec{
		Name:          "busy",
		Grid:          96,
		Block:         256,
		RegsPerThread: 16,
		Program:       b.Exit().Build(),
	}
	d := core.NewDynCTA()
	g := testGPU(t, d, sm.PolicyGTO, spec)
	if r := g.Run(); r.TimedOut {
		t.Fatal("timed out")
	}
	sum, n := 0, 0
	for _, lim := range d.Limits() {
		if lim > 0 {
			sum += lim
			n++
		}
	}
	if n > 0 && float64(sum)/float64(n) < 2 {
		t.Fatalf("DynCTA throttled a compute-bound kernel to %.1f CTAs avg", float64(sum)/float64(n))
	}
}

func TestKernelStateAccounting(t *testing.T) {
	ks := &core.KernelState{Spec: uniformKernel("k", 10, 1, 5, 16)}
	if ks.Exhausted() || ks.Done() {
		t.Fatal("fresh state exhausted/done")
	}
	if ks.Remaining() != 10 {
		t.Fatalf("Remaining = %d", ks.Remaining())
	}
	ks.NextCTA = 10
	if !ks.Exhausted() || ks.Done() {
		t.Fatal("exhausted state wrong")
	}
	ks.Completed = 10
	if !ks.Done() {
		t.Fatal("done state wrong")
	}
}
