package sm

import (
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
	"gpusched/internal/mem"
)

// rig wires one SM to a private memory system and drives the cycle loop the
// way the GPU front-end does.
type rig struct {
	t    *testing.T
	sm   *SM
	sys  *mem.System
	now  uint64
	done []*CTA
	// beforeStep, when set, runs at the top of every step (cert_test.go).
	beforeStep func(*rig)
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	memCfg := mem.DefaultConfig()
	sys := mem.NewSystem(&memCfg, 1)
	r := &rig{t: t, sys: sys}
	r.sm = New(0, &cfg, sys, 4, func(core int, cta *CTA) {
		r.done = append(r.done, cta)
	})
	return r
}

func (r *rig) step() {
	if r.beforeStep != nil {
		r.beforeStep(r)
	}
	r.sm.Tick(r.now)
	r.sys.Tick(r.now)
	r.now++
}

// runUntilDone advances until n CTAs completed or the deadline passes.
func (r *rig) runUntilDone(n int, deadline uint64) {
	for r.now < deadline {
		if len(r.done) >= n {
			return
		}
		r.step()
	}
	r.t.Fatalf("only %d/%d CTAs completed by cycle %d", len(r.done), n, deadline)
}

// specWith builds a one-size kernel of 64 CTAs whose every warp runs prog.
func specWith(warps int, prog isa.Program) *kernel.Spec {
	return &kernel.Spec{
		Name:          "test",
		Grid:          kernel.Dim3{X: 64},
		Block:         kernel.Dim3{X: warps * isa.WarpSize},
		RegsPerThread: 16,
		Program:       prog,
	}
}

// perWarpSpec builds specWith's kernel with warp w of CTA c running
// prog(c, w).
func perWarpSpec(warps int, prog func(ctaID, warpInCTA int) isa.Program) *kernel.Spec {
	var all []isa.Program
	for c := 0; c < 64; c++ {
		for w := 0; w < warps; w++ {
			all = append(all, prog(c, w))
		}
	}
	return specWith(warps, isa.NewPerWarp(warps, all))
}

func TestALUChainLatency(t *testing.T) {
	// 10 dependent FALU ops: each must wait ALULatency for the previous.
	r := newRig(t, nil)
	b := isa.NewBuilder()
	for i := 0; i < 10; i++ {
		b.FAlu(1, 1)
	}
	b.Exit()
	spec := specWith(1, b.Build())
	r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 10000)
	lat := r.sm.cfg.ALULatency
	wantMin := uint64(9) * lat // 9 dependence edges
	if r.now < wantMin {
		t.Fatalf("chain finished at %d, want >= %d", r.now, wantMin)
	}
	if r.sm.counters.InstrIssued != 11 {
		t.Fatalf("issued %d, want 11", r.sm.counters.InstrIssued)
	}
	if r.sm.counters.StallScoreboard == 0 {
		t.Fatal("dependence chain produced no scoreboard stalls")
	}
}

func TestIndependentWarpsHideLatency(t *testing.T) {
	// Plenty of independent warps: issue slots stay busy, so total time is
	// far below warps x chain-latency.
	chained := func(n int) *kernel.Spec {
		b := isa.NewBuilder()
		for i := 0; i < n; i++ {
			b.FAlu(1, 1)
		}
		b.Exit()
		return specWith(8, b.Build())
	}
	r := newRig(t, nil)
	spec := chained(20)
	r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 100000)
	serial := uint64(8*20) * r.sm.cfg.ALULatency
	if r.now >= serial/2 {
		t.Fatalf("8 warps took %d cycles; latency not hidden (serial bound %d)", r.now, serial)
	}
}

func TestDualIssue(t *testing.T) {
	// Two schedulers with abundant independent work approach 2 IPC.
	r := newRig(t, nil)
	b := isa.NewBuilder()
	for i := 0; i < 50; i++ {
		b.IAlu(isa.Reg(1+i%8), 0) // independent (distinct dsts, src r0)
	}
	b.Exit()
	spec := specWith(8, b.Build())
	r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 100000)
	ipc := float64(r.sm.counters.InstrIssued) / float64(r.now)
	if ipc < 1.5 {
		t.Fatalf("IPC = %.2f, want near 2 with dual schedulers", ipc)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Warp 0 does long work before the barrier; warp 1 none. Warp 1's
	// post-barrier instruction must not issue before warp 0 arrives.
	work := 40
	prog := func(ctaID, warpInCTA int) isa.Program {
		b := isa.NewBuilder()
		if warpInCTA == 0 {
			for i := 0; i < work; i++ {
				b.FAlu(1, 1) // dependent chain: slow
			}
		}
		b.Barrier()
		b.IAlu(2, 0)
		b.Exit()
		return b.Build()
	}
	r := newRig(t, nil)
	r.sm.AddCTA(perWarpSpec(2, prog), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 100000)
	minSlowArrival := uint64(work-1) * r.sm.cfg.ALULatency
	if r.now < minSlowArrival {
		t.Fatalf("CTA done at %d, before slow warp could reach barrier (%d)", r.now, minSlowArrival)
	}
	if r.sm.counters.StallBarrier == 0 {
		t.Fatal("no barrier stalls recorded")
	}
}

func TestCTACompletionFreesResources(t *testing.T) {
	r := newRig(t, nil)
	spec := specWith(2, isa.NewBuilder().IAlu(1, 0).Exit().Build())
	r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	if r.sm.ResidentCTAs() != 1 || r.sm.Usage().Warps != 2 {
		t.Fatalf("resident = %d, usage = %+v", r.sm.ResidentCTAs(), r.sm.Usage())
	}
	r.runUntilDone(1, 10000)
	if r.sm.ResidentCTAs() != 0 || r.sm.Usage().Warps != 0 {
		t.Fatalf("resources not freed: usage = %+v", r.sm.Usage())
	}
	if len(r.done) != 1 || r.done[0].ID != 0 {
		t.Fatalf("completion callback got %+v", r.done)
	}
	if !r.sm.Idle() {
		t.Fatal("SM not idle after completion")
	}
}

func TestOccupancyEnforced(t *testing.T) {
	r := newRig(t, nil)
	spec := specWith(8, isa.NewBuilder().Barrier().Exit().Build()) // 256 thr
	for i := 0; i < 6; i++ {                                       // 1536/256 = 6 fit
		if !r.sm.CanAccept(spec) {
			t.Fatalf("CTA %d rejected early", i)
		}
		r.sm.AddCTA(spec, 0, i, 0, 0, 0, r.now)
	}
	if r.sm.CanAccept(spec) {
		t.Fatal("7th CTA accepted past thread limit")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddCTA past capacity did not panic")
		}
	}()
	r.sm.AddCTA(spec, 0, 99, 0, 0, 0, r.now)
}

func TestLoadMissBlocksDependent(t *testing.T) {
	r := newRig(t, nil)
	b := isa.NewBuilder().
		LoadGlobal(1, 0).
		FAlu(2, 1). // depends on load
		Exit()
	r.sm.AddCTA(specWith(1, b.Build()), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 20000)
	memCfg := r.sys.Config()
	wantMin := 2*memCfg.XbarLatency + memCfg.L2Latency
	if r.now < wantMin {
		t.Fatalf("load+use finished at %d, faster than the memory system allows (%d)", r.now, wantMin)
	}
	if r.sm.L1Stats(r.now).Misses != 1 {
		t.Fatalf("L1 misses = %d, want 1", r.sm.L1Stats(r.now).Misses)
	}
	if r.sm.AvgMemLatency() <= 0 {
		t.Fatal("memory latency not recorded")
	}
}

func TestLoadHitFast(t *testing.T) {
	r := newRig(t, nil)
	b := isa.NewBuilder().
		LoadGlobal(1, 0).
		FAlu(2, 1).
		LoadGlobal(3, 0). // same line: L1 hit
		FAlu(4, 3).
		Exit()
	r.sm.AddCTA(specWith(1, b.Build()), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 20000)
	if r.sm.L1Stats(r.now).Hits != 1 {
		t.Fatalf("L1 hits = %d, want 1", r.sm.L1Stats(r.now).Hits)
	}
}

func TestDivergentLoadOccupiesLDST(t *testing.T) {
	// A 32-line divergent load issues one transaction per cycle; a
	// same-CTA second warp's memory op must queue behind it.
	r := newRig(t, nil)
	var addrs [isa.WarpSize]uint32
	for i := range addrs {
		addrs[i] = uint32(i * 4096) // distinct lines, same partition spread
	}
	b := isa.NewBuilder().LoadGlobalAddrs(1, addrs).FAlu(2, 1).Exit()
	r.sm.AddCTA(specWith(1, b.Build()), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 50000)
	l1 := r.sm.L1Stats(r.now)
	if l1.Accesses != 32 {
		t.Fatalf("L1 accesses = %d, want 32 transactions", l1.Accesses)
	}
}

func TestPredicatedOffMemOp(t *testing.T) {
	r := newRig(t, nil)
	b := isa.NewBuilder()
	b.Append(isa.WarpInstr{Op: isa.OpLoadGlobal, Dst: 1, Mask: 0})
	b.FAlu(2, 1).Exit()
	r.sm.AddCTA(specWith(1, b.Build()), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 10000)
	if r.sm.L1Stats(r.now).Accesses != 0 {
		t.Fatal("mask-0 load reached the L1")
	}
}

func TestSharedMemoryLatencyAndConflicts(t *testing.T) {
	run := func(conflict uint8) uint64 {
		r := newRig(t, nil)
		b := isa.NewBuilder()
		for i := 0; i < 16; i++ {
			b.LoadShared(1, conflict)
		}
		b.Exit()
		r.sm.AddCTA(specWith(1, b.Build()), 0, 0, 0, 0, 0, r.now)
		r.runUntilDone(1, 100000)
		return r.now
	}
	free := run(1)
	conflicted := run(8)
	if conflicted <= free {
		t.Fatalf("8-way conflict (%d cycles) not slower than conflict-free (%d)", conflicted, free)
	}
}

func TestSFUInitiationInterval(t *testing.T) {
	// Independent SFU ops from many warps: throughput capped by interval.
	r := newRig(t, nil)
	b := isa.NewBuilder()
	for i := 0; i < 10; i++ {
		b.Sfu(isa.Reg(1+i%8), 0)
	}
	b.Exit()
	spec := specWith(8, b.Build())
	r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 100000)
	// 80 SFU ops on 2 schedulers with interval 8 -> at least 80/2*8 cycles.
	wantMin := uint64(80/2) * r.sm.cfg.SFUInterval
	if r.now < wantMin/2 {
		t.Fatalf("SFU burst took %d cycles, interval not enforced (bound %d)", r.now, wantMin)
	}
}

func TestWAWBlocksIssue(t *testing.T) {
	r := newRig(t, nil)
	b := isa.NewBuilder().
		LoadGlobal(1, 0). // long-latency write to r1
		FAlu(1, 2).       // WAW on r1 must wait
		Exit()
	r.sm.AddCTA(specWith(1, b.Build()), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 20000)
	memCfg := r.sys.Config()
	if r.now < memCfg.XbarLatency*2 {
		t.Fatalf("WAW hazard ignored: done at %d", r.now)
	}
}

func TestGTOPrioritizesOlderCTA(t *testing.T) {
	// Two CTAs with long programs, added at different cycles. Under GTO the
	// older CTA should complete first and have issued the bulk of early
	// instructions.
	r := newRig(t, func(c *Config) { c.WarpPolicy = PolicyGTO; c.NumSchedulers = 1 })
	longProg := func() *kernel.Spec {
		b := isa.NewBuilder()
		for i := 0; i < 200; i++ {
			b.IAlu(isa.Reg(1+i%4), 0)
		}
		b.Exit()
		return specWith(2, b.Build())
	}
	spec := longProg()
	r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.step()
	r.sm.AddCTA(spec, 0, 1, 0, 1, 0, r.now)
	r.runUntilDone(1, 100000)
	if r.done[0].ID != 0 {
		t.Fatalf("younger CTA %d finished first under GTO", r.done[0].ID)
	}
}

func TestLRRSharesIssueSlots(t *testing.T) {
	// Under LRR both CTAs progress together: completion times are close.
	r := newRig(t, func(c *Config) { c.WarpPolicy = PolicyLRR; c.NumSchedulers = 1 })
	b := isa.NewBuilder()
	for i := 0; i < 200; i++ {
		b.IAlu(isa.Reg(1+i%4), 0)
	}
	b.Exit()
	spec := specWith(2, b.Build())
	r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.sm.AddCTA(spec, 0, 1, 0, 0, 0, r.now)
	var doneAt []uint64
	for r.now < 100000 && len(r.done) < 2 {
		before := len(r.done)
		r.step()
		if len(r.done) > before {
			doneAt = append(doneAt, r.now)
		}
	}
	if len(doneAt) != 2 {
		t.Fatal("CTAs did not finish")
	}
	gap := doneAt[1] - doneAt[0]
	if gap > doneAt[0]/4 {
		t.Fatalf("LRR completion gap %d too large (first at %d)", gap, doneAt[0])
	}
}

func TestBAWSInterleavesBlock(t *testing.T) {
	// Three CTAs: 0 and 1 form a block (same BlockKey, older), 2 is newer.
	// Under BAWS, CTA 1 (same block as 0) outranks... the key property:
	// block members share the block age, so CTA 1 issues ahead of CTA 2
	// even though CTA 2 has an older per-CTA arrival.
	r := newRig(t, func(c *Config) { c.WarpPolicy = PolicyBAWS; c.NumSchedulers = 1 })
	b := isa.NewBuilder()
	for i := 0; i < 100; i++ {
		b.IAlu(isa.Reg(1+i%4), 0)
	}
	b.Exit()
	spec := specWith(1, b.Build())
	// CTA 2 arrives first but with a later block key.
	r.sm.AddCTA(spec, 0, 2, 0, 10, 0, r.now)
	r.sm.AddCTA(spec, 0, 0, 0, 5, 0, r.now)
	r.sm.AddCTA(spec, 0, 1, 0, 5, 1, r.now)
	r.runUntilDone(3, 100000)
	order := []int{r.done[0].ID, r.done[1].ID, r.done[2].ID}
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("BAWS completion order = %v, want [0 1 2]", order)
	}
}

func TestEarlyExitDoesNotDeadlockBarrier(t *testing.T) {
	// Warp 0 exits before the barrier warp 1 waits at: warp 1 must still be
	// released (defensive behaviour for malformed kernels).
	prog := func(ctaID, warpInCTA int) isa.Program {
		b := isa.NewBuilder()
		if warpInCTA == 0 {
			b.Exit()
		} else {
			b.Barrier().IAlu(1, 0).Exit()
		}
		return b.Build()
	}
	r := newRig(t, nil)
	r.sm.AddCTA(perWarpSpec(2, prog), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 10000)
}

func TestPerCTAIssueCounters(t *testing.T) {
	r := newRig(t, nil)
	b := isa.NewBuilder().IAlu(1, 0).IAlu(2, 0).Exit()
	spec := specWith(1, b.Build())
	cta := r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 10000)
	if cta.Issued != 3 {
		t.Fatalf("CTA issued = %d, want 3", cta.Issued)
	}
	if r.sm.KernelIssued[0] != 3 {
		t.Fatalf("kernel bucket = %d, want 3", r.sm.KernelIssued[0])
	}
}

func TestStoreDoesNotBlockWarp(t *testing.T) {
	// Stores are fire-and-forget: the warp retires without waiting for the
	// write to reach DRAM.
	r := newRig(t, nil)
	b := isa.NewBuilder().StoreGlobal(1, 0).Exit()
	r.sm.AddCTA(specWith(1, b.Build()), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 200)
}

func TestTwoLevelBarrierNoDeadlock(t *testing.T) {
	// Regression: with more warps than the active set, warps parked in
	// the pending set must still reach the barrier (barrier-blocked
	// active warps get swapped out, or the CTA deadlocks).
	r := newRig(t, func(c *Config) {
		c.WarpPolicy = PolicyTwoLevel
		c.ActiveSetSize = 2
		c.NumSchedulers = 1
	})
	b := isa.NewBuilder().IAlu(1, 0).Barrier().IAlu(2, 0).Barrier().Exit()
	r.sm.AddCTA(specWith(8, b.Build()), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 100000)
}

func TestTwoLevelSwapsOnMemoryStall(t *testing.T) {
	// One long-latency load per warp with 8 warps and a 2-wide active
	// set: progress requires demoting memory-blocked warps.
	r := newRig(t, func(c *Config) {
		c.WarpPolicy = PolicyTwoLevel
		c.ActiveSetSize = 2
		c.NumSchedulers = 1
	})
	prog := func(ctaID, w int) isa.Program {
		return isa.NewBuilder().
			LoadGlobal(1, uint32(w*4096)).
			FAlu(2, 1).
			Exit().Build()
	}
	r.sm.AddCTA(perWarpSpec(8, prog), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 100000)
}

func TestMixedKernelsResidentCounts(t *testing.T) {
	r := newRig(t, nil)
	spec := specWith(2, isa.NewBuilder().Barrier().Exit().Build())
	r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.sm.AddCTA(spec, 1, 1, 1<<32, 0, 0, r.now)
	r.sm.AddCTA(spec, 1, 2, 1<<32, 0, 0, r.now)
	if r.sm.ResidentOf(0) != 1 || r.sm.ResidentOf(1) != 2 {
		t.Fatalf("ResidentOf = (%d,%d), want (1,2)",
			r.sm.ResidentOf(0), r.sm.ResidentOf(1))
	}
}

// TestScoreboardHoldsProgramRegs: a warp's scoreboard holds the registers
// its program names (Regs), whatever its kernel declares. One program that
// names r40 and r50 runs at RegsPerThread 0, 4 and 64 in the same cycles
// with the same counters, each warp holding 51 entries. A later placement in
// the pooled context of a program that names r3 cuts 4 entries a warp from
// the same slab, cleared.
func TestScoreboardHoldsProgramRegs(t *testing.T) {
	b := isa.NewBuilder().LoadGlobal(50, 0)
	for i := 0; i < 4; i++ {
		b.FAlu(40, 40, 50)
	}
	prog := b.FAlu(1, 2).FAlu(3, 1).Exit().Build()
	run := func(regs int) (c *rig, cta *CTA) {
		c = newRig(t, nil)
		spec := specWith(2, prog)
		spec.RegsPerThread = regs
		cta = c.sm.AddCTA(spec, 0, 0, 0, 0, 0, c.now)
		for i, w := range cta.Warps() {
			if len(w.readyAt) != spec.Program.Regs() || len(w.readyAt) != 51 {
				t.Fatalf("RegsPerThread %d: warp %d holds %d scoreboard entries, program names %d, want 51",
					regs, i, len(w.readyAt), spec.Program.Regs())
			}
		}
		c.runUntilDone(1, 100000)
		return c, cta
	}
	ref, _ := run(64)
	for _, regs := range []int{0, 4} {
		c, _ := run(regs)
		if c.now != ref.now || c.sm.counters != ref.sm.counters {
			t.Fatalf("RegsPerThread %d: %d cycles %+v; at 64: %d cycles %+v",
				regs, c.now, c.sm.counters, ref.now, ref.sm.counters)
		}
	}
	c, cta := run(4)
	c.sm.Recycle(cta)
	again := c.sm.AddCTA(specWith(2, isa.NewBuilder().FAlu(3, 1).Exit().Build()), 0, 1, 0, 0, 0, c.now)
	if again != cta {
		t.Fatal("placement did not reuse the pooled context")
	}
	for i, w := range again.Warps() {
		if len(w.readyAt) != 4 || &w.readyAt[0] != &again.regs[4*i] {
			t.Fatalf("re-placed warp %d: %d entries, cut from the slab %v", i, len(w.readyAt), &w.readyAt[0] == &again.regs[4*i])
		}
		for r, at := range w.readyAt {
			if at != 0 {
				t.Fatalf("re-placed warp %d: r%d ready at %d, want a cleared scoreboard", i, r, at)
			}
		}
	}
}
