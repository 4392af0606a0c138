package gpusched

import "context"

// RunReference is Run on the reference cycle loop (gpu.GPU.RunReference):
// every SM and the dispatcher ticked every cycle, nothing parked or skipped.
// Test-only, so the fuzz oracle reaches the reference without a public entry
// point.
func RunReference(cfg Config, sched Scheduler, kernels ...Kernel) (Result, error) {
	g, d, err := newGPU(cfg, sched, kernels)
	if err != nil {
		return Result{}, err
	}
	raw, _ := g.RunReference(context.Background()) // never canceled
	return resultFrom(raw, sched, d), nil
}
