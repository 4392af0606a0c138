package sim

import (
	"runtime"
	"testing"
)

// TestServiceCoreBudget pins the default run-level pool size: one core budget
// shared between concurrent simulations and the tick workers inside each, so
// the product never exceeds GOMAXPROCS unless the caller sizes the pool
// explicitly. GOMAXPROCS, not NumCPU, is the budget — the 1-proc row fails
// on any multi-core host if the pool is sized from the machine instead of
// from what the process may use.
func TestServiceCoreBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs, tickWorkers, want int
	}{
		{1, 0, 1}, {1, 1, 1}, {1, 2, 1}, {1, 8, 1},
		{2, 0, 2}, {2, 1, 2}, {2, 2, 1}, {2, 8, 1},
		{8, 0, 8}, {8, 1, 8}, {8, 2, 4}, {8, 8, 1},
		{6, 4, 1}, {12, 8, 1}, {12, 4, 3},
	} {
		runtime.GOMAXPROCS(tc.procs)
		s := NewService(Options{TickWorkers: tc.tickWorkers})
		if got := cap(s.sem); got != tc.want {
			t.Errorf("GOMAXPROCS=%d TickWorkers=%d: %d concurrent simulations, want %d",
				tc.procs, tc.tickWorkers, got, tc.want)
		}
		if got := cap(s.sem) * s.TickWorkers(); tc.tickWorkers <= tc.procs && got > tc.procs {
			t.Errorf("GOMAXPROCS=%d TickWorkers=%d: %d simulations x %d tick workers oversubscribes the cores",
				tc.procs, tc.tickWorkers, cap(s.sem), s.TickWorkers())
		}
	}
	runtime.GOMAXPROCS(2)
	if got := cap(NewService(Options{Workers: 5, TickWorkers: 2}).sem); got != 5 {
		t.Errorf("explicit Workers=5 resolved to %d", got)
	}
}
