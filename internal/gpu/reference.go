package gpu

import "context"

// RunReference is RunContext without its idle-skipping, the loop whose
// results RunContext must equal bit for bit: every cycle ticks the
// dispatcher and every SM in index order, then both commits, then every L2
// partition in index order (mem.System.Tick), so a refused partition head is
// tried again on every cycle. What it shares with RunContext is exactly:
//   - New, which builds the machine;
//   - commitRetirements and commitPreemptions;
//   - collect, which reads the Result;
//   - each component's own Tick: the dispatcher's, sm.SM.Tick and
//     mem.L2Partition.Tick.
//
// It shares no wake bound, stall-certificate horizon or skip rule, so it
// witnesses them rather than copying them. Tests call it; a GPU runs one
// loop, once.
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
		g.engine.PartitionTicks += uint64(g.cfg.Mem.Partitions)
		g.now++
		g.engine.CyclesTicked++
		g.postTick = false
	}
	return g.collect(), nil
}
