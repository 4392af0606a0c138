package workloads

import (
	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

func init() {
	register(Workload{
		Name:      "spmv",
		ModeledOn: "Parboil spmv (CSR, banded sparsity)",
		Class:     ClassCache,
		Build:     buildSPMV,
	})
	register(Workload{
		Name:      "bfs",
		ModeledOn: "Rodinia bfs (frontier expansion)",
		Class:     ClassIrregular,
		Build:     buildBFS,
	})
	register(Workload{
		Name:      "histo",
		ModeledOn: "Parboil histo (atomic binning)",
		Class:     ClassIrregular,
		Build:     buildHisto,
	})
}

// buildSPMV models CSR sparse matrix-vector multiply on a banded matrix:
// each CTA's rows draw their column indices from a private 4 KiB window of
// the x vector, revisited row after row. One resident CTA's window fits in
// a corner of the L1; the occupancy-maximal eight CTAs need 32 KiB and
// thrash it — the canonical cache-sensitive workload where fewer CTAs beat
// more. Gather loads are 4-lane clustered (≤8 transactions per access).
func buildSPMV(s Scale) *kernel.Spec {
	ctas := pick(s, 32, 360, 720)
	rows := pick(s, 6, 20, 24)
	const warpsPerCTA = 4
	const windowBytes = 4 * 1024
	totalWarps := ctas * warpsPerCTA
	idxStride := uint32(totalWarps * isa.WarpSize * 4)
	row := func(region uint32) func(*isa.Cursor) uint32 {
		return func(c *isa.Cursor) uint32 {
			return region + warpBase(c, warpsPerCTA, 4) + uint32(c.Iter)*idxStride
		}
	}
	cols := func(slot int) Lanes {
		return func(c *isa.Cursor, a *[isa.WarpSize]uint32) {
			gw, window := gwarp(c, warpsPerCTA), uint32(regionB)+uint32(c.CTA)*windowBytes
			for g := 0; g < isa.WarpSize/4; g++ {
				r := hash3(gw, c.Iter*4+slot, g)
				setGroup(a, g, 4, window+(r%(windowBytes/4))*4)
			}
		}
	}

	return &kernel.Spec{
		Name:          "spmv",
		Grid:          ctas,
		Block:         warpsPerCTA * isa.WarpSize,
		RegsPerThread: 24,
		Program: shared(&loopProgram{
			iters: rows,
			body: []Emit{
				ldg(1, row(regionA)),
				gather(2, nil, cols(0)),
				gather(3, nil, cols(1)),
				alu(isa.OpFAlu, 4, 2, 1),
				alu(isa.OpFAlu, 5, 3, 4),
				alu(isa.OpFAlu, 6, 5, 6),
				stg(6, row(regionC)),
			},
		}),
	}
}

// buildBFS models frontier expansion: coalesced frontier reads followed by
// neighbor gathers scattered across a large graph with iteration-varying
// active masks (control divergence). Latency bound, no locality to protect
// — the workload class where maximal CTA counts help, bounding LCS's
// throttle decisions from below.
func buildBFS(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	iters := pick(s, 4, 8, 10)
	const warpsPerCTA = 8
	const graphBytes = 16 << 20
	totalWarps := ctas * warpsPerCTA
	stride := uint32(totalWarps * isa.WarpSize * 4)
	frontier := func(region uint32) func(*isa.Cursor) uint32 {
		return func(c *isa.Cursor) uint32 {
			return region + warpBase(c, warpsPerCTA, 4) + uint32(c.Iter)*stride
		}
	}
	mask := func(c *isa.Cursor) uint32 {
		// 50-100% of lanes active, varying per iteration.
		m := hash2(gwarp(c, warpsPerCTA), c.Iter)
		return m | 0x0000FFFF | (m >> 7)
	}
	neighbor := func(slot int) Lanes {
		return func(c *isa.Cursor, a *[isa.WarpSize]uint32) {
			gw := gwarp(c, warpsPerCTA)
			for g := 0; g < isa.WarpSize/4; g++ {
				r := hash3(gw, c.Iter*2+slot, g)
				setGroup(a, g, 4, regionB+(r%(graphBytes/4))*4)
			}
		}
	}

	return &kernel.Spec{
		Name:          "bfs",
		Grid:          ctas,
		Block:         warpsPerCTA * isa.WarpSize,
		RegsPerThread: 18,
		Program: shared(&loopProgram{
			iters: iters,
			body: []Emit{
				ldg(1, frontier(regionA)),
				gather(2, mask, neighbor(0)),
				gather(3, mask, neighbor(1)),
				aluMasked(isa.OpIAlu, 4, mask, 2, 3),
				aluMasked(isa.OpIAlu, 5, mask, 4, 1),
				stg(5, frontier(regionC)),
				branch(),
			},
		}),
	}
}

// buildHisto models atomic binning: streamed input, then read-modify-write
// updates into a 4 KiB bin array shared by every CTA. The atomics serialize
// at the L2 partitions, so throughput is contention bound.
func buildHisto(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	iters := pick(s, 4, 10, 12)
	const warpsPerCTA = 8
	const bins = 1024
	totalWarps := ctas * warpsPerCTA
	stride := uint32(totalWarps * isa.WarpSize * 4)
	in := func(c *isa.Cursor) uint32 {
		return regionA + warpBase(c, warpsPerCTA, 4) + uint32(c.Iter)*stride
	}
	binAt := func(c *isa.Cursor, a *[isa.WarpSize]uint32) {
		gw := gwarp(c, warpsPerCTA)
		for g := 0; g < isa.WarpSize/8; g++ {
			r := hash3(gw, c.Iter, g)
			setGroup(a, g, 8, regionB+(r%bins)*4)
		}
	}

	return &kernel.Spec{
		Name:          "histo",
		Grid:          ctas,
		Block:         warpsPerCTA * isa.WarpSize,
		RegsPerThread: 14,
		Program: shared(&loopProgram{
			iters: iters,
			body: []Emit{
				ldg(1, in),
				alu(isa.OpIAlu, 2, 1),
				atom(3, binAt),
				branch(),
			},
		}),
	}
}
