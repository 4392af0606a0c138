package sim_test

import (
	"slices"
	"testing"

	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// kernelPin is what a run decided for one kernel.
type kernelPin struct {
	Done    uint64
	Evicted int
}

// TestSchedulerOutcomesPinned pins what every registry policy makes of a
// two-kernel request on 4 SMs: the run's cycles, each kernel's completion
// cycle and evictions, and the per-core limits an LCS-family policy
// decided. The determinism tests run one dispatcher on both cycle loops, and
// the goldens cover only baseline and LCS, so this is the tier-1 check that
// sees a dispatcher that places differently. dct8x8 is one of the kernels
// whose tiny grid LCS's limit slows. vadd arrives at cycle 500, so the
// preemptive policies evict; the two-kernel policies also run it arriving
// with dct8x8, which moves where they place it.
func TestSchedulerOutcomesPinned(t *testing.T) {
	for _, tc := range []struct {
		sched   string
		arrive  uint64 // vadd's arrival cycle
		cycles  uint64
		kernels []kernelPin
		limits  []int
	}{
		{"baseline", 500, 6823, []kernelPin{{6822, 0}, {6623, 0}}, nil},
		{"lcs", 500, 7574, []kernelPin{{7573, 0}, {7159, 0}}, []int{3, 3, 3, 3}},
		{"adaptive", 500, 7574, []kernelPin{{7573, 0}, {7159, 0}}, []int{3, 3, 3, 3}},
		{"dyncta", 500, 6823, []kernelPin{{6822, 0}, {6623, 0}}, []int{4, 4, 5, 4}},
		{"bcs:2", 500, 6928, []kernelPin{{6927, 0}, {6563, 0}}, nil},
		{"static:3", 500, 6792, []kernelPin{{6791, 0}, {6655, 0}}, nil},
		{"sequential", 500, 8978, []kernelPin{{5508, 0}, {8977, 0}}, nil},
		{"spatial", 0, 10235, []kernelPin{{10234, 0}, {3782, 0}}, nil},
		{"spatial", 500, 10311, []kernelPin{{10310, 0}, {4272, 0}}, nil},
		{"mixed:2", 0, 7806, []kernelPin{{7805, 0}, {3576, 0}}, nil},
		{"mixed:2", 500, 8180, []kernelPin{{8179, 0}, {4133, 0}}, nil},
		{"preemptive", 0, 8973, []kernelPin{{8972, 0}, {3922, 0}}, nil},
		{"preemptive", 500, 8247, []kernelPin{{8246, 15}, {4425, 0}}, nil},
		{"preemptive:20000", 0, 8973, []kernelPin{{8972, 0}, {3922, 0}}, nil},
		{"preemptive:20000", 500, 7896, []kernelPin{{7895, 10}, {4550, 0}}, nil},
	} {
		spec, err := sim.ParseSched(tc.sched)
		if err != nil {
			t.Fatal(err)
		}
		req := sim.Request{
			Workloads: []string{"dct8x8", "vadd"},
			Arrivals:  []uint64{0, tc.arrive},
			Sched:     spec,
			Warp:      sm.PolicyGTO,
			Scale:     workloads.ScaleTest,
			Cores:     4,
		}
		m, err := req.Build(nil)
		if err != nil {
			t.Fatal(err)
		}
		out := m.Outcome(m.Run())
		var kernels []kernelPin
		for _, k := range out.Result.Kernels {
			kernels = append(kernels, kernelPin{k.DoneCycle, k.Evicted})
		}
		if out.Result.TimedOut || out.Result.Cycles != tc.cycles || !slices.Equal(kernels, tc.kernels) || !slices.Equal(out.Limits, tc.limits) {
			t.Errorf("%s, vadd at %d: %d cycles, kernels %v, limits %v (timed out %t); want %d, %v, %v",
				tc.sched, tc.arrive, out.Result.Cycles, kernels, out.Limits, out.Result.TimedOut, tc.cycles, tc.kernels, tc.limits)
		}
	}
}
