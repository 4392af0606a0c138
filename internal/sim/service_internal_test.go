package sim

import (
	"runtime"
	"testing"
)

// TestServiceCoreBudget pins the default run-level pool size: one concurrent
// simulation per core the process may use, unless the caller sizes the pool
// explicitly. GOMAXPROCS, not NumCPU, is the budget — the 1-proc row fails
// on any multi-core host if the pool is sized from the machine instead of
// from what the process may use.
func TestServiceCoreBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8, 12} {
		runtime.GOMAXPROCS(procs)
		if got := cap(NewService(Options{}).sem); got != procs {
			t.Errorf("GOMAXPROCS=%d: %d concurrent simulations, want %d", procs, got, procs)
		}
	}
	runtime.GOMAXPROCS(2)
	if got := cap(NewService(Options{Workers: 5}).sem); got != 5 {
		t.Errorf("explicit Workers=5 resolved to %d", got)
	}
}
