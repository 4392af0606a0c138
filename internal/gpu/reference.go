package gpu

import "context"

// RunReference is RunContext without its idle-skipping, the loop whose
// results RunContext must equal bit for bit: every cycle ticks the
// dispatcher and every SM in index order, then both commits and the memory
// system. It shares New, the commits and collect with RunContext and none of
// the skip rules, so it witnesses them rather than copying them. Tests call
// it; a GPU runs one loop, once.
func (g *GPU) RunReference(ctx context.Context) (Result, error) {
	live := ctx.Done() != nil
	for g.doneCount < len(g.kernels) && g.now < g.cfg.MaxCycles {
		if live && g.now%ctxCheckInterval == 0 && canceled(ctx) {
			return g.collect(), ctx.Err()
		}
		if g.epochFn != nil && g.now%g.epochEvery == 0 {
			g.epochFn(g.now)
		}
		g.admitArrivals()
		g.dispatcher.Tick(g)
		g.engine.DispatcherTicks++
		for _, c := range g.cores {
			c.Tick(g.now)
		}
		g.engine.SMTicks += uint64(len(g.cores))
		g.postTick = true
		g.commitRetirements()
		g.commitPreemptions()
		g.memsys.Tick(g.now)
		g.now++
		g.engine.CyclesTicked++
		g.postTick = false
	}
	return g.collect(), nil
}
