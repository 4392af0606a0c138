package workloads

import (
	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

// ChaseSpec builds the stall-heavy pointer-chase-style microbenchmark: each
// warp alternates a fully-coalesced global load with an ALU op consuming the
// loaded value, so the warp parks on the scoreboard for the full memory
// round trip between issues. Every warp touches distinct lines (no reuse,
// all misses). With many CTAs it keeps L1, crossbar, L2 and DRAM busy every
// cycle; with one warp nearly every cycle is one the GPU loop's calendar
// jumps over. It is not part of the paper's workload registry — it
// exists to benchmark the simulator itself, not a scheduling policy.
func ChaseSpec(ctas, warpsPerCTA, iters int) *kernel.Spec {
	line := func(c *isa.Cursor) uint32 {
		return uint32((gwarp(c, warpsPerCTA)*iters + c.Iter) * 128)
	}
	return &kernel.Spec{
		Name:          "chase",
		Grid:          kernel.Dim3{X: ctas},
		Block:         kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread: 8,
		Program: shared(&loopProgram{
			iters: iters,
			body:  []Emit{ldg(2, line), alu(isa.OpIAlu, 3, 2)},
		}),
	}
}
