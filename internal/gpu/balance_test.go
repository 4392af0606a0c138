package gpu

import (
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// TestCrossbarIndexStarvation writes down what the request crossbar's fixed
// index priority does to a memory-bound run: SMs tick in ascending index, a
// freed partition-queue slot goes to the lowest-index waiter, so whenever
// memory saturates the low-index SMs complete most of the CTAs and the high
// ones starve. On the 15-SM machine at ScaleSmall under the baseline
// dispatcher and GTO, stencil and vadd each complete 44 CTAs on their
// busiest SM against 6 on the idlest, while compute-bound sgemm completes
// 12 on every SM.
//
// This is the expected failure of the machine-balance claim under index
// arbitration. It flips, and this test with it, when the crossbar
// arbitrates fairly (ROADMAP item 2(c)).
func TestCrossbarIndexStarvation(t *testing.T) {
	for _, tc := range []struct {
		workload string
		starved  bool
	}{
		{"stencil", true},
		{"vadd", true},
		{"sgemm", false},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			w, ok := workloads.ByName(tc.workload)
			if !ok {
				t.Fatalf("%s workload missing", tc.workload)
			}
			cfg := DefaultConfig()
			cfg.Core.WarpPolicy = sm.PolicyGTO
			g, err := New(cfg, core.NewRoundRobin(), w.Build(workloads.ScaleSmall))
			if err != nil {
				t.Fatal(err)
			}
			if r := g.Run(); r.TimedOut {
				t.Fatalf("timed out at %d cycles", r.Cycles)
			}
			lo, hi := ^uint64(0), uint64(0)
			for i := 0; i < g.NumCores(); i++ {
				n := g.CoreCounters(i).CTAsCompleted
				lo, hi = min(lo, n), max(hi, n)
			}
			ratio := float64(hi) / float64(lo)
			t.Logf("CTAs per SM: min %d, max %d (%.2f)", lo, hi, ratio)
			if starved := ratio > 1.5; starved != tc.starved {
				t.Errorf("max/min CTAs per SM = %d/%d = %.2f; starved = %v, want %v",
					hi, lo, ratio, starved, tc.starved)
			}
		})
	}
}
