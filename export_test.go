package gpusched

// RunReference is Run on the reference cycle loop
// (gpu.Config.DisableFastForward): every SM and the dispatcher ticked every
// cycle, nothing parked or skipped. Test-only, so the fuzz oracle reaches the
// execution knob without a public field.
func RunReference(cfg Config, sched Scheduler, kernels ...Kernel) (Result, error) {
	gc := cfg.build()
	gc.DisableFastForward = true
	g, d, err := newGPU(gc, sched, kernels)
	if err != nil {
		return Result{}, err
	}
	return resultFrom(g.Run(), sched, d), nil
}
