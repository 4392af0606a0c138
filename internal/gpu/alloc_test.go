package gpu

import (
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/workloads"
)

// TestAllocationBudget pins the allocation count of one whole simulation —
// build the launch, New, Run — after a warm run has filled the process-wide
// program-template cache. Each budget is about 1.5× the measured count.
// Placement must stay on the memoized template path (workloads'
// memoProgram): bypassing it multiplies the count by 3.4–6×. At this size
// CTA context pooling (SM.Recycle) moves the count by less than the margin,
// so this test does not guard it.
func TestAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget float64
	}{
		{"stencil", 830},
		{"sgemm", 780},
		{"spmv", 1030},
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
			if allocs := testing.AllocsPerRun(3, run); allocs > tc.budget {
				t.Errorf("%.0f allocs per run, budget %.0f", allocs, tc.budget)
			}
		})
	}
}
