package gpusched_test

import (
	"strings"
	"testing"

	"gpusched"
)

func tinyConfig() gpusched.Config {
	cfg := gpusched.DefaultConfig()
	cfg.NumCores = 4
	return cfg
}

func TestWorkloadCatalogPublic(t *testing.T) {
	ws := gpusched.Workloads()
	if len(ws) != 19 {
		t.Fatalf("got %d workloads, want 19", len(ws))
	}
	for _, w := range ws {
		if w.Name == "" || w.Class == "" || w.ModeledOn == "" {
			t.Errorf("incomplete workload %+v", w)
		}
		k := w.Kernel(gpusched.SizeTiny)
		if k.CTAs() <= 0 || k.ThreadsPerCTA()%32 != 0 {
			t.Errorf("%s: bad kernel shape %d x %d", w.Name, k.CTAs(), k.ThreadsPerCTA())
		}
	}
	if _, ok := gpusched.WorkloadByName("spmv"); !ok {
		t.Error("WorkloadByName(spmv) failed")
	}
	if _, ok := gpusched.WorkloadByName("missing"); ok {
		t.Error("WorkloadByName(missing) succeeded")
	}
}

func TestRunBaseline(t *testing.T) {
	w, _ := gpusched.WorkloadByName("vadd")
	res, err := gpusched.Run(tinyConfig(), gpusched.Baseline(), w.Kernel(gpusched.SizeTiny))
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || res.Cycles == 0 || res.IPC <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if len(res.Kernels) != 1 || res.Kernels[0].Name != "vadd" {
		t.Fatalf("kernel stats %+v", res.Kernels)
	}
	if res.CTALimits != nil {
		t.Error("baseline reported CTA limits")
	}
}

func TestRunLCSExposesLimits(t *testing.T) {
	w, _ := gpusched.WorkloadByName("spmv")
	for _, sched := range []gpusched.Scheduler{gpusched.LCS(), gpusched.AdaptiveLCS()} {
		res, err := gpusched.Run(tinyConfig(), sched, w.Kernel(gpusched.SizeTiny))
		if err != nil {
			t.Fatal(err)
		}
		if res.CTALimits == nil {
			t.Errorf("%s: no CTA limits exposed", sched.Name())
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	cases := map[string]gpusched.Scheduler{
		"baseline":     gpusched.Baseline(),
		"lcs":          gpusched.LCS(),
		"lcs-adaptive": gpusched.AdaptiveLCS(),
		"bcs":          gpusched.BCS(2),
		"static-3":     gpusched.StaticLimit(3),
		"sequential":   gpusched.Sequential(),
		"spatial":      gpusched.SpatialCKE(0),
		"mixed":        gpusched.MixedCKE(2),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name = %q, want %q", s.Name(), want)
		}
	}
}

// TestParseRoundTrips: every scheduler the public constructors build, every
// warp policy and every size parses back from its name through the public
// Parse functions, and SchedulerFlagHelp lists each scheduler, and nothing
// else: a registry entry without a constructor fails the count.
func TestParseRoundTrips(t *testing.T) {
	listed := map[string]bool{}
	for _, alt := range strings.Split(gpusched.SchedulerFlagHelp, " | ") {
		name, _, _ := strings.Cut(alt, "[")
		name, _, _ = strings.Cut(name, ":")
		listed[name] = true
	}
	scheds := []gpusched.Scheduler{
		gpusched.Baseline(), gpusched.LCS(), gpusched.AdaptiveLCS(), gpusched.DynCTA(),
		gpusched.BCS(4), gpusched.StaticLimit(3), gpusched.Sequential(),
		gpusched.SpatialCKE(5), gpusched.MixedCKE(2), gpusched.Preemptive(1, 5000),
	}
	if len(listed) != len(scheds) {
		t.Errorf("SchedulerFlagHelp lists %d schedulers, the constructors build %d", len(listed), len(scheds))
	}
	for _, s := range scheds {
		got, err := gpusched.ParseScheduler(s.String())
		if err != nil || got.String() != s.String() {
			t.Errorf("ParseScheduler(%q) = %v, %v", s, got, err)
		}
		if name, _, _ := strings.Cut(s.String(), ":"); !listed[name] {
			t.Errorf("SchedulerFlagHelp %q does not list %q", gpusched.SchedulerFlagHelp, name)
		}
	}
	for _, p := range []gpusched.WarpPolicy{gpusched.WarpLRR, gpusched.WarpGTO, gpusched.WarpBAWS, gpusched.WarpTwoLevel} {
		if got, err := gpusched.ParseWarpPolicy(p.String()); err != nil || got != p {
			t.Errorf("ParseWarpPolicy(%q) = %v, %v", p, got, err)
		}
	}
	for name, want := range map[string]gpusched.Size{
		"tiny": gpusched.SizeTiny, "small": gpusched.SizeSmall, "full": gpusched.SizeFull,
	} {
		if got, err := gpusched.ParseSize(name); err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
}

func TestWarpPolicyString(t *testing.T) {
	for p, want := range map[gpusched.WarpPolicy]string{
		gpusched.WarpLRR:  "lrr",
		gpusched.WarpGTO:  "gto",
		gpusched.WarpBAWS: "baws",
	} {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestMultiKernelRun(t *testing.T) {
	a, _ := gpusched.WorkloadByName("vadd")
	b, _ := gpusched.WorkloadByName("kmeans")
	res, err := gpusched.Run(tinyConfig(), gpusched.Sequential(),
		a.Kernel(gpusched.SizeTiny), b.Kernel(gpusched.SizeTiny))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernels) != 2 {
		t.Fatalf("got %d kernel records", len(res.Kernels))
	}
	if res.Kernels[1].LaunchCycle < res.Kernels[0].DoneCycle {
		t.Error("sequential scheduler overlapped kernels")
	}
}

func TestSpeedupHelper(t *testing.T) {
	base := gpusched.Result{Cycles: 2000}
	faster := gpusched.Result{Cycles: 1000}
	if got := faster.Speedup(base); got != 2 {
		t.Errorf("Speedup = %v, want 2", got)
	}
}

func TestKernelBuilder(t *testing.T) {
	k, err := gpusched.NewKernelBuilder("custom", 8, 64).
		Regs(20).
		SharedMem(1024).
		Program(func(ctaID, warp int, p *gpusched.ProgramBuilder) {
			p.LoadGlobal(1, uint32(ctaID*256+warp*128))
			p.FAdd(2, 1, 2)
			p.Barrier()
			p.LoadShared(3, 2)
			p.SFU(4, 3)
			p.StoreGlobal(4, uint32(1<<20+ctaID*256))
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if k.Name() != "custom" || k.CTAs() != 8 || k.ThreadsPerCTA() != 64 {
		t.Fatalf("kernel shape %s %d %d", k.Name(), k.CTAs(), k.ThreadsPerCTA())
	}
	res, err := gpusched.Run(tinyConfig(), gpusched.Baseline(), k)
	if err != nil {
		t.Fatal(err)
	}
	// 8 CTAs x 2 warps x 7 instructions (6 + exit).
	if res.InstrIssued != 8*2*7 {
		t.Fatalf("issued %d, want %d", res.InstrIssued, 8*2*7)
	}
}

// A custom kernel is one program built at Build: the callback runs once per
// warp of the grid there, and a run, which places every CTA, never calls it.
func TestKernelBuilderBuildsOnce(t *testing.T) {
	const ctas, warps = 120, 8
	calls := 0
	k := gpusched.NewKernelBuilder("saxpy", ctas, warps*32).
		Program(func(ctaID, warp int, p *gpusched.ProgramBuilder) {
			calls++
			base := uint32((ctaID*warps + warp) * 128)
			p.LoadGlobal(1, base).FMul(2, 1, 1).StoreGlobal(2, 1<<28+base)
		}).
		MustBuild()
	for range 2 {
		res, err := gpusched.Run(tinyConfig(), gpusched.Baseline(), k)
		if err != nil {
			t.Fatal(err)
		}
		if res.InstrIssued != ctas*warps*4 {
			t.Fatalf("issued %d, want %d", res.InstrIssued, ctas*warps*4)
		}
	}
	if calls != ctas*warps {
		t.Fatalf("callback ran %d times over Build and two runs, want %d (once per warp)", calls, ctas*warps)
	}
}

func TestKernelBuilderValidation(t *testing.T) {
	if _, err := gpusched.NewKernelBuilder("bad", 4, 33).Build(); err == nil {
		t.Error("ragged block accepted")
	}
	if _, err := gpusched.NewKernelBuilder("bad", 0, 64).Build(); err == nil {
		t.Error("empty grid accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid kernel")
		}
	}()
	gpusched.NewKernelBuilder("bad", 4, 33).MustBuild()
}

// A register the core cannot track fails Build, naming where it is, instead
// of panicking inside Run.
func TestKernelBuilderRejectsRegisterRange(t *testing.T) {
	_, err := gpusched.NewKernelBuilder("wide", 2, 64).
		Program(func(ctaID, warp int, p *gpusched.ProgramBuilder) {
			p.IAdd(1, 0)
			if ctaID == 1 && warp == 1 {
				p.IAdd(70, 1)
			}
		}).
		Build()
	if err == nil {
		t.Fatal("Build accepted register 70")
	}
	for _, part := range []string{"kernel wide", "CTA 1", "warp 1", "register 70"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	k := gpusched.NewKernelBuilder("top", 2, 64).
		Program(func(_, _ int, p *gpusched.ProgramBuilder) { p.IAdd(63, 0).FAdd(1, 63) }).
		MustBuild()
	if _, err := gpusched.Run(tinyConfig(), gpusched.Baseline(), k); err != nil {
		t.Fatalf("register 63: %v", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	w, _ := gpusched.WorkloadByName("vadd")
	for _, cores := range []int{0, -1} {
		cfg := tinyConfig()
		cfg.NumCores = cores
		if _, err := gpusched.Run(cfg, gpusched.Baseline(), w.Kernel(gpusched.SizeTiny)); err == nil {
			t.Errorf("Run accepted NumCores = %d", cores)
		}
	}
}

// TestRunRejectsBadMemoryConfig: a memory system the caches or DRAM
// channels cannot be built on is an error from Run, not a panic.
func TestRunRejectsBadMemoryConfig(t *testing.T) {
	w, _ := gpusched.WorkloadByName("vadd")
	for _, tc := range []struct {
		name string
		set  func(*gpusched.Config)
		want string
	}{
		{"96-byte lines", func(c *gpusched.Config) { c.Mem.LineBytes = 96 }, "LineBytes 96"},
		{"3 KB L1", func(c *gpusched.Config) { c.Mem.L1Bytes = 3 * 1024 }, "6 sets"},
		{"3-way L2", func(c *gpusched.Config) { c.Mem.L2Ways = 3 }, "L2"},
		{"no partitions", func(c *gpusched.Config) { c.Mem.Partitions = 0 }, "Partitions 0"},
		{"no DRAM banks", func(c *gpusched.Config) { c.Mem.DRAMBanks = 0 }, "DRAMBanks 0"},
		{"no crossbar queue", func(c *gpusched.Config) { c.Mem.XbarQueueCap = 0 }, "XbarQueueCap 0"},
		{"no DRAM queue", func(c *gpusched.Config) { c.Mem.DRAMQueueCap = 0 }, "DRAMQueueCap 0"},
		{"row under a line", func(c *gpusched.Config) { c.Mem.DRAMRowBytes = 64 }, "DRAMRowBytes 64"},
	} {
		cfg := tinyConfig()
		tc.set(&cfg)
		_, err := gpusched.Run(cfg, gpusched.Baseline(), w.Kernel(gpusched.SizeTiny))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestCustomHardwareConfig(t *testing.T) {
	w, _ := gpusched.WorkloadByName("spmv")
	run := func(l1Bytes int) gpusched.Result {
		cfg := tinyConfig()
		cfg.Mem.L1Bytes = l1Bytes
		res, err := gpusched.Run(cfg, gpusched.Baseline(), w.Kernel(gpusched.SizeTiny))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	big := run(256 * 1024) // every resident gather window fits
	small := run(4 * 1024) // nothing fits
	if big.L1HitRate <= small.L1HitRate {
		t.Errorf("64x larger L1 did not improve hit rate: %.3f vs %.3f",
			big.L1HitRate, small.L1HitRate)
	}
}

func TestWorkloadClassesCovered(t *testing.T) {
	classes := map[string]bool{}
	for _, w := range gpusched.Workloads() {
		classes[w.Class] = true
	}
	for _, c := range []string{"compute", "stream", "cache", "locality", "irregular", "sync"} {
		if !classes[c] {
			t.Errorf("class %s missing from public catalog", c)
		}
	}
}

func TestStaticLimitNameEncodesLimit(t *testing.T) {
	if !strings.HasPrefix(gpusched.StaticLimit(5).Name(), "static-5") {
		t.Error("static limit name lost its parameter")
	}
}
