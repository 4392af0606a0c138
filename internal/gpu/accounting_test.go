package gpu

import (
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/isa"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// expectedInstructions drains every warp program of a workload and counts
// the dynamic instructions the simulator must issue.
func expectedInstructions(t *testing.T, name string) uint64 {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	spec := w.Build(workloads.ScaleTest)
	var total uint64
	var buf isa.WarpInstr
	for cta := 0; cta < spec.NumCTAs(); cta++ {
		for warp := 0; warp < spec.WarpsPerCTA(); warp++ {
			c := isa.Cursor{CTA: cta, Warp: warp}
			for spec.Program.Next(&c, &buf) {
				total++
			}
		}
	}
	return total
}

// TestInstructionAccounting checks the strongest end-to-end invariant: the
// simulator issues exactly the instructions the generators produce — no
// replays, drops, or double counting — regardless of scheduler.
func TestInstructionAccounting(t *testing.T) {
	for _, name := range []string{"vadd", "spmv", "stencil", "sgemm", "reduce", "histo"} {
		name := name
		t.Run(name, func(t *testing.T) {
			want := expectedInstructions(t, name)
			w, _ := workloads.ByName(name)
			for _, tc := range []struct {
				sched  core.Dispatcher
				policy sm.Policy
			}{
				{core.NewRoundRobin(), sm.PolicyGTO},
				{core.NewAdaptiveLCS(), sm.PolicyGTO},
				{core.NewBCS(), sm.PolicyBAWS},
			} {
				cfg := testConfig()
				cfg.Core.WarpPolicy = tc.policy
				g, err := New(cfg, tc.sched, w.Build(workloads.ScaleTest))
				if err != nil {
					t.Fatal(err)
				}
				r := g.Run()
				if r.TimedOut {
					t.Fatalf("%T timed out", tc.sched)
				}
				if r.InstrIssued != want {
					t.Errorf("%T: issued %d instructions, generators produced %d",
						tc.sched, r.InstrIssued, want)
				}
			}
		})
	}
}

// TestResponseRoutingManyCores stresses token routing with every core
// hammering the same partitions simultaneously.
func TestResponseRoutingManyCores(t *testing.T) {
	w, _ := workloads.ByName("bfs") // scattered gathers, maximal routing churn
	cfg := testConfig()
	cfg.NumCores = 8
	g, err := New(cfg, core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	r := g.Run()
	if r.TimedOut {
		t.Fatal("timed out")
	}
	if int(r.Core.CTAsCompleted) != 24 {
		t.Fatalf("completed %d CTAs, want 24", r.Core.CTAsCompleted)
	}
}

// TestEpochHookCadence verifies the tracing hook fires exactly once per
// epoch boundary.
func TestEpochHookCadence(t *testing.T) {
	w, _ := workloads.ByName("vadd")
	g, err := New(testConfig(), core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	var fired []uint64
	g.SetEpochHook(500, func(now uint64) { fired = append(fired, now) })
	r := g.Run()
	if len(fired) == 0 {
		t.Fatal("hook never fired")
	}
	for i, at := range fired {
		if at != uint64(i)*500 {
			t.Fatalf("firing %d at cycle %d, want %d", i, at, i*500)
		}
	}
	if want := r.Cycles/500 + 1; uint64(len(fired)) != want {
		t.Fatalf("fired %d times over %d cycles, want %d", len(fired), r.Cycles, want)
	}
}

// TestEpochHookZeroDefaults verifies the 0 epoch falls back sanely.
func TestEpochHookZeroDefaults(t *testing.T) {
	w, _ := workloads.ByName("vadd")
	g, err := New(testConfig(), core.NewRoundRobin(), w.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	g.SetEpochHook(0, func(uint64) { n++ })
	g.Run()
	if n == 0 {
		t.Fatal("default-epoch hook never fired")
	}
}

// TestDeterminismAcrossSchedulers: same scheduler twice on a divergent
// atomic-heavy workload must agree bit-for-bit in every counter.
func TestDeterminismAtomicWorkload(t *testing.T) {
	w, _ := workloads.ByName("histo")
	run := func() Result {
		g, err := New(testConfig(), core.NewBCS(), w.Build(workloads.ScaleTest))
		if err != nil {
			t.Fatal(err)
		}
		return g.Run()
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.DRAM != b.DRAM || a.L2 != b.L2 {
		t.Fatalf("replay diverged: %+v vs %+v", a.DRAM, b.DRAM)
	}
}
