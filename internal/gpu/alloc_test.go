package gpu

import (
	"runtime"
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/kernel"
	"gpusched/internal/workloads"
)

// TestAllocationBudget pins the allocation count and the allocated bytes of
// one whole simulation — build the launch, New, Run — after a warm run. The
// count budgets are about 1.5× the measured counts and catch per-issue
// formatting or boxing. The byte budgets are about 1.15× the measured bytes
// (stable to 0.5 % under -race and GOMAXPROCS=1) and catch what the count
// misses: a slice that grows on the per-cycle path allocates rarely but
// keeps doubling. A warp placement allocates nothing: every warp runs its
// kernel's one shared program, and the chase case, 480 one-warp CTAs on a
// spec built afresh each run, fails if a placement builds a program again.
// spmv, nn and bfs issue global accesses of up to 8, 4 and 8 lines, so
// their counts catch a line buffer allocated per warp or per wide access.
// At this size CTA context pooling (SM.Recycle) moves the count by less
// than the margin, so this test does not guard it.
func TestAllocationBudget(t *testing.T) {
	const runs = 3
	registry := func(name string) func() *kernel.Spec {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("%s workload missing", name)
		}
		return func() *kernel.Spec { return w.Build(workloads.ScaleTest) }
	}
	for _, tc := range []struct {
		name          string
		spec          func() *kernel.Spec
		allocs, bytes float64
	}{
		{"stencil", registry("stencil"), 800, 205_000},
		{"sgemm", registry("sgemm"), 720, 181_000},
		{"spmv", registry("spmv"), 975, 195_000},
		{"nn", registry("nn"), 950, 184_000},
		{"bfs", registry("bfs"), 985, 206_000},
		{"chase", func() *kernel.Spec { return workloads.ChaseSpec(480, 1, 4) }, 670, 147_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				mustRun(t, testConfig(), core.NewRoundRobin(), tc.spec())
			}
			run()
			// As testing.AllocsPerRun does: one P, so no other goroutine of
			// this process allocates between the two reads.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / runs
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("%.0f allocs, %.0f bytes per run", allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("%.0f allocs per run, budget %.0f", allocs, tc.allocs)
			}
			if bytes > tc.bytes {
				t.Errorf("%.0f bytes per run, budget %.0f", bytes, tc.bytes)
			}
		})
	}
}
