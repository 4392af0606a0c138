package gpu

import (
	"runtime"
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/workloads"
)

// TestAllocationBudget pins the allocation count and the allocated bytes of
// one whole simulation — build the launch, New, Run — after a warm run has
// filled the process-wide program-template cache. The count budgets are
// about 1.5× the measured counts and catch per-issue formatting or boxing.
// The byte budgets are about 1.15× the measured bytes (stable to 0.5 %
// under -race and GOMAXPROCS=1) and catch what the count misses: a slice
// that grows on the per-cycle path allocates rarely but keeps doubling.
// Placement must stay on the memoized template path (workloads'
// memoProgram): bypassing it multiplies the count by 3.4–6×. At this size
// CTA context pooling (SM.Recycle) moves the count by less than the margin,
// so this test does not guard it.
func TestAllocationBudget(t *testing.T) {
	const runs = 3
	for _, tc := range []struct {
		name          string
		allocs, bytes float64
	}{
		{"stencil", 830, 470_000},
		{"sgemm", 780, 407_000},
		{"spmv", 1030, 422_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, ok := workloads.ByName(tc.name)
			if !ok {
				t.Fatalf("%s workload missing", tc.name)
			}
			run := func() {
				mustRun(t, testConfig(), core.NewRoundRobin(), w.Build(workloads.ScaleTest))
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
